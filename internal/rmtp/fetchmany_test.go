package rmtp

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/memtable"
)

// TestFetchManyAbsentLineMidWindow: a line the server does not hold, in the
// middle of a window, draws its own error without aborting the window. The
// lines around it are served and released, so the server ends holding
// nothing.
func TestFetchManyAbsentLineMidWindow(t *testing.T) {
	s := startServer(t, 0)
	c := dial(t, s, "app0")
	for _, line := range []int32{1, 2, 4, 5} {
		if err := c.StoreAck(line, entriesN(int(line))); err != nil {
			t.Fatal(err)
		}
	}
	var order []int32
	c.FetchMany([]int32{1, 2, 3, 4, 5}, func(line int32, entries []memtable.Entry, err error) {
		order = append(order, line)
		if line == 3 {
			if err == nil || !strings.Contains(err.Error(), "not held") {
				t.Errorf("line 3: err = %v, want a not-held error", err)
			}
			return
		}
		if err != nil {
			t.Errorf("line %d: %v", line, err)
			return
		}
		want := entriesN(int(line))
		if len(entries) != len(want) {
			t.Errorf("line %d: %d entries, want %d", line, len(entries), len(want))
			return
		}
		for i := range want {
			if entries[i] != want[i] {
				t.Errorf("line %d entry %d: %+v, want %+v", line, i, entries[i], want[i])
			}
		}
	})
	if len(order) != 5 {
		t.Fatalf("got called for %v, want each of the 5 lines once", order)
	}
	for i, line := range order {
		if line != int32(i+1) {
			t.Fatalf("got order %v, want the request order", order)
		}
	}
	if m := s.Metrics(); m.HeldLines != 0 || m.LeasedLines != 0 || m.Releases != 4 {
		t.Errorf("server after the window: %d held / %d leased / %d releases, want 0/0/4",
			m.HeldLines, m.LeasedLines, m.Releases)
	}
}

// TestFetchManySpansWindows: more lines than one window holds are fetched
// across several pipelined windows, each line once and in order.
func TestFetchManySpansWindows(t *testing.T) {
	s := startServer(t, 0)
	c := dial(t, s, "app0")
	n := 2*window + 7
	lines := make([]int32, n)
	for i := range lines {
		lines[i] = int32(i)
		if err := c.StoreAck(lines[i], entriesN(1+i%5)); err != nil {
			t.Fatal(err)
		}
	}
	next := int32(0)
	c.FetchMany(lines, func(line int32, entries []memtable.Entry, err error) {
		if err != nil || line != next || len(entries) != 1+int(line)%5 {
			t.Fatalf("line %d (want %d): %d entries, %v", line, next, len(entries), err)
		}
		next++
	})
	if int(next) != n {
		t.Fatalf("%d lines delivered, want %d", next, n)
	}
	if m := s.Metrics(); m.HeldLines != 0 || m.Fetches != uint64(n) || m.Releases != uint64(n) {
		t.Errorf("server: %d held, %d fetches, %d releases; want 0, %d, %d", m.HeldLines, m.Fetches, m.Releases, n, n)
	}
	if got := c.Metrics().Calls; got != uint64(2*n+n) {
		t.Errorf("client calls = %d, want %d (one per store, hold and release)", got, 3*n)
	}
}

// writeCounter counts the Write calls a server session makes.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (w *writeCounter) Write(b []byte) (int, error) {
	w.writes.Add(1)
	return w.Conn.Write(b)
}

// TestServerAnswersBurstInOneWrite: replies are flushed only when the
// session's read buffer holds no further request. A pipelined burst is
// answered in one write; a lone request is answered at once, in one write.
func TestServerAnswersBurstInOneWrite(t *testing.T) {
	s := NewServer(0)
	client, server := net.Pipe()
	wc := &writeCounter{Conn: server}
	s.mu.Lock()
	s.conns[wc] = struct{}{}
	s.mu.Unlock()
	s.wg.Add(1)
	go s.serveConn(wc)
	defer s.Close()
	defer client.Close()

	// Hello plus eight stores, sent in one write, then the replies read.
	var burst bytes.Buffer
	WriteFrame(&burst, OpHello, 0, EncodeString("app0"))
	for line := int32(0); line < 8; line++ {
		WriteFrame(&burst, OpStoreAck, line, memtable.AppendEntries(nil, entriesN(3)))
	}
	go client.Write(burst.Bytes())
	for line := int32(0); line < 8; line++ {
		op, rline, _, err := ReadFrame(client)
		if err != nil || op != OpOK || rline != line {
			t.Fatalf("store reply %d: op %d line %d err %v", line, op, rline, err)
		}
	}
	if n := wc.writes.Load(); n != 1 {
		t.Errorf("burst of 8 requests answered in %d writes, want 1", n)
	}

	// A lone request: its reply arrives without anything further sent.
	var lone bytes.Buffer
	WriteFrame(&lone, OpStat, 0, nil)
	go client.Write(lone.Bytes())
	if op, _, _, err := ReadFrame(client); err != nil || op != OpOK {
		t.Fatalf("stat reply: op %d err %v", op, err)
	}
	if n := wc.writes.Load(); n != 2 {
		t.Errorf("lone request answered in %d writes, want 1", n-1)
	}
}

// TestDecodersBoundAllocationByPayload: a 4-byte payload that declares a
// huge count is rejected before the decoder sizes anything from the count.
// Any connected peer reaches DecodeLines through OpMigrate. (The entry-list
// decoder behind StoreAck frames is memtable.DecodeEntries, bounded the same
// way and tested with it.)
func TestDecodersBoundAllocationByPayload(t *testing.T) {
	payload := binary.AppendUvarint(nil, maxFrame/2)
	for _, tc := range []struct {
		name   string
		decode func([]byte) error
	}{
		{"DecodeLines", func(b []byte) error { _, _, err := DecodeLines(b); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode(payload)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s accepted a %d-byte payload declaring %d items", tc.name, len(payload), maxFrame/2)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s allocated %d bytes before rejecting the payload, want under 1 MB", tc.name, d)
		}
	}
}

// FuzzDecodeEntries: a StoreAck payload from any peer never panics the
// entry-list decoder (memtable.DecodeEntries), a decoded count never exceeds
// what the payload's bytes could carry, and whatever decodes survives an
// encode/decode round trip.
func FuzzDecodeEntries(f *testing.F) {
	f.Add([]byte{})
	f.Add(memtable.AppendEntries(nil, nil))
	f.Add(memtable.AppendEntries(nil, entriesN(3)))
	f.Add(memtable.AppendEntries(nil, []memtable.Entry{{Key: "", Count: -1}, {Key: "xyz", Count: 1 << 30}}))
	f.Add(binary.AppendUvarint(nil, maxFrame/2))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := memtable.DecodeEntries(data)
		if err != nil {
			return
		}
		if len(entries) > len(data)/2 {
			t.Fatalf("%d entries decoded from %d bytes", len(entries), len(data))
		}
		back, err := memtable.DecodeEntries(memtable.AppendEntries(nil, entries))
		if err != nil || len(back) != len(entries) {
			t.Fatalf("round trip: %d entries (%v), want %d", len(back), err, len(entries))
		}
		for i := range entries {
			if back[i] != entries[i] {
				t.Fatalf("entry %d: %+v vs %+v", i, back[i], entries[i])
			}
		}
	})
}

// FuzzDecodeLines: as FuzzDecodeEntries, for line-id lists (at least one
// byte per line).
func FuzzDecodeLines(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeLines(nil))
	f.Add(EncodeLines([]int32{0, -1, 1 << 30}))
	f.Add(binary.AppendUvarint(nil, maxFrame/2))
	f.Fuzz(func(t *testing.T, data []byte) {
		lines, rest, err := DecodeLines(data)
		if err != nil {
			return
		}
		if len(lines) > len(data) {
			t.Fatalf("%d lines decoded from %d bytes", len(lines), len(data))
		}
		back, tail, err := DecodeLines(EncodeLines(lines))
		if err != nil || len(tail) != 0 || len(back) != len(lines) {
			t.Fatalf("round trip: %d lines, %d trailing bytes (%v), want %d", len(back), len(tail), err, len(lines))
		}
		for i := range lines {
			if back[i] != lines[i] {
				t.Fatalf("line %d: %d vs %d", i, back[i], lines[i])
			}
		}
		if !bytes.HasSuffix(data, rest) {
			t.Fatalf("rest %x is not a suffix of the input", rest)
		}
	})
}
