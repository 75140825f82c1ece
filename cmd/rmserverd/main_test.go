package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/memtable"
	"repro/internal/rmtp"
)

// TestDebugEndpointsOverLoopback is the -debug-addr integration test: a
// store serves rmtp on loopback TCP while the debug mux serves pprof and
// the live expvar metrics; after real client traffic the published "rmtp"
// snapshot must reflect it.
func TestDebugEndpointsOverLoopback(t *testing.T) {
	srv := rmtp.NewServer(0)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dbg := httptest.NewServer(newDebugMux(srv))
	defer dbg.Close()

	// Real traffic over loopback: store, update, fetch, stat.
	c, err := rmtp.Dial(srv.Addr(), "miner-0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.StoreAck(3, []memtable.Entry{{Key: "ab", Count: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateBatch([]rmtp.UpdateItem{{Line: 3, Key: "ab"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fetch(3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat(); err != nil {
		t.Fatal(err)
	}

	// /debug/vars serves the live rmtp snapshot.
	resp, err := http.Get(dbg.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", resp.StatusCode)
	}
	var vars struct {
		RMTP map[string]float64 `json:"rmtp"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("decoding /debug/vars: %v", err)
	}
	if vars.RMTP == nil {
		t.Fatal("/debug/vars has no rmtp var")
	}
	if vars.RMTP["stores"] != 1 || vars.RMTP["fetches"] != 1 || vars.RMTP["updates"] != 1 {
		t.Fatalf("rmtp op counters = %v", vars.RMTP)
	}
	if vars.RMTP["bytes_recv"] <= 0 || vars.RMTP["bytes_sent"] <= 0 {
		t.Fatalf("rmtp byte counters = %v", vars.RMTP)
	}
	if vars.RMTP["requests"] < 5 || vars.RMTP["latency_p99_ns"] < 0 {
		t.Fatalf("rmtp latency fields = %v", vars.RMTP)
	}

	// The pprof index and a profile endpoint answer.
	resp, err = http.Get(dbg.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "heap") {
		t.Fatalf("pprof index: status %d body %.80q", resp.StatusCode, body)
	}
	resp, err = http.Get(dbg.URL + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof heap status = %d", resp.StatusCode)
	}

	// A second mux (fleet restart in-process) re-points the published var
	// at the new store instead of the dead one.
	srv2 := rmtp.NewServer(0)
	if err := srv2.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	dbg2 := httptest.NewServer(newDebugMux(srv2))
	defer dbg2.Close()
	resp, err = http.Get(dbg2.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars2 struct {
		RMTP map[string]float64 `json:"rmtp"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars2); err != nil {
		t.Fatal(err)
	}
	if vars2.RMTP["stores"] != 0 {
		t.Fatalf("fresh store snapshot = %v", vars2.RMTP)
	}
}

// TestDebugVarsUnderConcurrentTraffic hammers the store with parallel rmtp
// sessions while polling /debug/vars the whole time: every snapshot must
// decode cleanly (no torn reads under -race), and the final one must account
// for exactly the traffic sent.
func TestDebugVarsUnderConcurrentTraffic(t *testing.T) {
	srv := rmtp.NewServer(0)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dbg := httptest.NewServer(newDebugMux(srv))
	defer dbg.Close()

	readVars := func() map[string]float64 {
		t.Helper()
		resp, err := http.Get(dbg.URL + "/debug/vars")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var vars struct {
			RMTP map[string]float64 `json:"rmtp"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
			t.Fatalf("decoding /debug/vars mid-traffic: %v", err)
		}
		return vars.RMTP
	}

	const workers, rounds = 6, 25
	var pollers, traffic sync.WaitGroup
	stop := make(chan struct{})
	pollers.Add(1)
	go func() { // snapshot poller racing the traffic
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if m := readVars(); m == nil {
				return
			}
		}
	}()
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			c, err := rmtp.Dial(srv.Addr(), fmt.Sprintf("miner-%d", w))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for r := 0; r < rounds; r++ {
				line := int32(r)
				if err := c.StoreAck(line, []memtable.Entry{{Key: "k", Count: 1}}); err != nil {
					errs <- fmt.Errorf("worker %d store: %w", w, err)
					return
				}
				if err := c.UpdateBatch([]rmtp.UpdateItem{{Line: line, Key: "k"}}); err != nil {
					errs <- fmt.Errorf("worker %d update: %w", w, err)
					return
				}
				if _, err := c.Fetch(line); err != nil {
					errs <- fmt.Errorf("worker %d fetch: %w", w, err)
					return
				}
			}
			// Stat syncs the session so every one-way update above is
			// processed before the final snapshot is read.
			if _, err := c.Stat(); err != nil {
				errs <- err
			}
		}(w)
	}
	traffic.Wait()
	close(stop)
	pollers.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	const total = workers * rounds
	m := readVars()
	if m["stores"] != total || m["fetches"] != total || m["updates"] != total {
		t.Fatalf("final op counters = stores %v fetches %v updates %v, want %d each",
			m["stores"], m["fetches"], m["updates"], total)
	}
	if m["releases"] != total {
		t.Fatalf("releases = %v, want %d (every fetch lease released)", m["releases"], total)
	}
	// Session teardown is noticed by the server asynchronously; poll.
	deadline := time.Now().Add(5 * time.Second)
	for m["active_conns"] != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("active_conns = %v after all sessions closed", m["active_conns"])
		}
		time.Sleep(10 * time.Millisecond)
		m = readVars()
	}
}
