package rmtp

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/memtable"
)

// TestServerMetricsLoopback drives a store/fetch/update/stat sequence over
// loopback and checks the server-side counters a live rmserverd publishes:
// op totals, wire bytes each way, and the per-request latency histogram.
func TestServerMetricsLoopback(t *testing.T) {
	s := NewServer(0)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), "owner")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	entries := []memtable.Entry{{Key: "a", Count: 1}, {Key: "b", Count: 2}}
	if err := c.StoreAck(7, entries); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateBatch([]UpdateItem{{Line: 7, Key: "a"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fetch(7); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat(); err != nil {
		t.Fatal(err)
	}

	m := s.Metrics()
	if m.Stores != 1 || m.Fetches != 1 || m.Updates != 1 {
		t.Fatalf("op counters = %+v", m)
	}
	if m.HeldLines != 0 || m.HeldBytes != 0 {
		t.Fatalf("occupancy after fetch = %d lines / %d bytes", m.HeldLines, m.HeldBytes)
	}
	// Hello + store + update + fetch + stat all arrived; fetch + stat
	// replied. Each frame costs at least its header.
	if m.BytesRecv < 5*frameHeaderBytes {
		t.Fatalf("bytes_recv = %d, want >= %d", m.BytesRecv, 5*frameHeaderBytes)
	}
	if m.BytesSent < 2*frameHeaderBytes {
		t.Fatalf("bytes_sent = %d, want >= %d", m.BytesSent, 2*frameHeaderBytes)
	}
	if m.Latency.Count < 5 {
		t.Fatalf("latency observations = %d, want >= 5", m.Latency.Count)
	}
	if m.Latency.Quantile(0.5) < 0 || m.Latency.Mean() < 0 {
		t.Fatal("negative latency summary")
	}

	snap := m.Snapshot("store-0")
	vars := snap.Map()
	for _, key := range []string{"stores", "fetches", "updates", "migrated",
		"held_lines", "held_bytes", "bytes_recv", "bytes_sent", "requests",
		"latency_mean_ns", "latency_p50_ns", "latency_p99_ns"} {
		if _, ok := vars[key]; !ok {
			t.Fatalf("snapshot missing field %q: %v", key, vars)
		}
	}
	if vars["stores"] != 1 || vars["requests"] != float64(m.Latency.Count) {
		t.Fatalf("snapshot values = %v", vars)
	}
}

// TestServerMetricsConcurrentTraffic hammers one server from several client
// goroutines while other goroutines continuously snapshot Server.Metrics and
// Client.Metrics. Run under -race this is the locking regression test for
// the counters rmserverd publishes over expvar; the totals must also add up
// exactly once the traffic drains.
func TestServerMetricsConcurrentTraffic(t *testing.T) {
	const (
		workers = 8
		rounds  = 40
	)
	s := startServer(t, 0)
	clients := make([]*Client, workers)
	for i := range clients {
		clients[i] = dial(t, s, fmt.Sprintf("worker-%d", i))
	}

	stop := make(chan struct{})
	var snapshots sync.WaitGroup
	for i := 0; i < 2; i++ {
		snapshots.Add(1)
		go func() {
			defer snapshots.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := s.Metrics()
				if m.HeldLines < 0 || m.HeldBytes < 0 || m.ActiveConns < 0 {
					t.Error("negative gauge in concurrent snapshot")
					return
				}
				_ = m.Snapshot("store").Map()
				for _, c := range clients {
					_ = c.Metrics().Snapshot("client").Map()
				}
			}
		}()
	}

	var traffic sync.WaitGroup
	for w, c := range clients {
		traffic.Add(1)
		go func(w int, c *Client) {
			defer traffic.Done()
			for r := 0; r < rounds; r++ {
				line := int32(r)
				if err := c.StoreAck(line, entriesN(3)); err != nil {
					t.Errorf("worker %d store %d: %v", w, r, err)
					return
				}
				if err := c.UpdateBatch([]UpdateItem{{Line: line, Key: "key-001"}}); err != nil {
					t.Errorf("worker %d update %d: %v", w, r, err)
					return
				}
				got, err := c.Fetch(line)
				if err != nil {
					t.Errorf("worker %d fetch %d: %v", w, r, err)
					return
				}
				if len(got) != 3 || got[1].Count != 2 {
					t.Errorf("worker %d round %d: entries %v", w, r, got)
					return
				}
				if _, err := c.Stat(); err != nil {
					t.Errorf("worker %d stat %d: %v", w, r, err)
					return
				}
			}
		}(w, c)
	}
	traffic.Wait()
	close(stop)
	snapshots.Wait()

	m := s.Metrics()
	want := uint64(workers * rounds)
	if m.Stores != want || m.Fetches != want || m.Updates != want || m.Releases != want {
		t.Errorf("totals = %d stores / %d fetches / %d updates / %d releases, want %d each",
			m.Stores, m.Fetches, m.Updates, m.Releases, want)
	}
	if m.HeldLines != 0 || m.HeldBytes != 0 || m.LeasedLines != 0 {
		t.Errorf("store not drained: %d lines / %d bytes / %d leased",
			m.HeldLines, m.HeldBytes, m.LeasedLines)
	}
	if m.ActiveConns != int64(workers) {
		t.Errorf("ActiveConns = %d, want %d", m.ActiveConns, workers)
	}
}
