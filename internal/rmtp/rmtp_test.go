package rmtp

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/memtable"
)

func startServer(t *testing.T, capacity int64) *Server {
	t.Helper()
	s := NewServer(capacity)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dial(t *testing.T, s *Server, owner string) *Client {
	t.Helper()
	c, err := Dial(s.Addr(), owner)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func entriesN(n int) []memtable.Entry {
	out := make([]memtable.Entry, n)
	for i := range out {
		out[i] = memtable.Entry{Key: fmt.Sprintf("key-%03d", i), Count: int32(i)}
	}
	return out
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello world")
	if err := WriteFrame(&buf, OpStoreAck, 42, payload); err != nil {
		t.Fatal(err)
	}
	op, line, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if op != OpStoreAck || line != 42 || !bytes.Equal(got, payload) {
		t.Errorf("round trip: op=%d line=%d payload=%q", op, line, got)
	}
}

func TestEntriesEncodeDecodeProperty(t *testing.T) {
	prop := func(keys []string, counts []int32) bool {
		n := len(keys)
		if len(counts) < n {
			n = len(counts)
		}
		in := make([]memtable.Entry, n)
		for i := 0; i < n; i++ {
			in[i] = memtable.Entry{Key: keys[i], Count: counts[i]}
		}
		out, err := memtable.DecodeEntries(memtable.AppendEntries(nil, in))
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLinesAndStatEncodeDecode(t *testing.T) {
	lines := []int32{0, 1, -5, 1 << 30}
	got, rest, err := DecodeLines(EncodeLines(lines))
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v rest=%d", err, len(rest))
	}
	for i := range lines {
		if got[i] != lines[i] {
			t.Errorf("line %d: %d != %d", i, got[i], lines[i])
		}
	}
	st, err := DecodeStat(EncodeStat(Stat{Lines: 7, Bytes: -3}))
	if err != nil || st.Lines != 7 || st.Bytes != -3 {
		t.Errorf("stat round trip: %+v %v", st, err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := memtable.DecodeEntries([]byte{}); err == nil {
		t.Error("empty entries accepted")
	}
	if _, err := memtable.DecodeEntries([]byte{0xFF}); err == nil {
		t.Error("truncated uvarint accepted")
	}
	if _, _, err := DecodeString([]byte{10, 'a'}); err == nil {
		t.Error("short string accepted")
	}
	if _, _, err := DecodeLines(nil); err == nil {
		t.Error("nil lines accepted")
	}
}

func TestStoreFetchOverLoopback(t *testing.T) {
	s := startServer(t, 0)
	c := dial(t, s, "node-0")
	want := entriesN(5)
	if err := c.StoreAck(7, want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Fetch(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("fetched %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d: %+v != %+v", i, got[i], want[i])
		}
	}
	// Second fetch must fail: the copy was released.
	if _, err := c.Fetch(7); err == nil {
		t.Error("double fetch succeeded")
	}
	if occ := s.Occupancy(); occ.Lines != 0 || occ.Bytes != 0 {
		t.Errorf("server not empty after fetch: %+v", occ)
	}
}

func TestUpdateAccumulatesRemotely(t *testing.T) {
	s := startServer(t, 0)
	c := dial(t, s, "node-0")
	if err := c.StoreAck(3, []memtable.Entry{{Key: "a"}, {Key: "b"}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.UpdateBatch([]UpdateItem{{Line: 3, Key: "b"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.UpdateBatch([]UpdateItem{{Line: 3, Key: "missing"}}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Fetch(3)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int32{}
	for _, e := range got {
		counts[e.Key] = e.Count
	}
	if counts["b"] != 10 || counts["a"] != 0 {
		t.Errorf("counts = %v, want b=10 a=0", counts)
	}
}

func TestOwnersAreNamespaced(t *testing.T) {
	s := startServer(t, 0)
	a := dial(t, s, "node-a")
	b := dial(t, s, "node-b")
	if err := a.StoreAck(1, []memtable.Entry{{Key: "from-a"}}); err != nil {
		t.Fatal(err)
	}
	if err := b.StoreAck(1, []memtable.Entry{{Key: "from-b"}}); err != nil {
		t.Fatal(err)
	}
	got, err := a.Fetch(1)
	if err != nil || len(got) != 1 || got[0].Key != "from-a" {
		t.Errorf("owner a fetched %v (%v)", got, err)
	}
	got, err = b.Fetch(1)
	if err != nil || len(got) != 1 || got[0].Key != "from-b" {
		t.Errorf("owner b fetched %v (%v)", got, err)
	}
}

func TestMigrationBetweenServers(t *testing.T) {
	s1 := startServer(t, 0)
	s2 := startServer(t, 0)
	c := dial(t, s1, "node-0")
	for line := int32(0); line < 10; line++ {
		if err := c.StoreAck(line, entriesN(3)); err != nil {
			t.Fatal(err)
		}
	}
	// Fetch one line first so migration must skip it.
	if _, err := c.Fetch(4); err != nil {
		t.Fatal(err)
	}
	moved, err := c.Migrate(s2.Addr(), []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 9 {
		t.Fatalf("moved %d lines, want 9", len(moved))
	}
	if occ := s1.Occupancy(); occ.Lines != 0 {
		t.Errorf("source still holds %d lines", occ.Lines)
	}
	if occ := s2.Occupancy(); occ.Lines != 9 {
		t.Errorf("destination holds %d lines, want 9", occ.Lines)
	}
	// The owner can now fetch from the destination.
	c2 := dial(t, s2, "node-0")
	got, err := c2.Fetch(5)
	if err != nil || len(got) != 3 {
		t.Errorf("post-migration fetch: %v (%d entries)", err, len(got))
	}
	// Fetching from the source reports the forward.
	if _, err := c.Fetch(5); err == nil {
		t.Error("source served a migrated line")
	}

	// A destination with room for one line only: migration stops at the
	// first refused line, which stays at the source and is not reported moved.
	small := startServer(t, 3*entryMemBytes)
	want := entriesN(3)
	for line := int32(20); line < 22; line++ {
		if err := c.StoreAck(line, want); err != nil {
			t.Fatal(err)
		}
	}
	moved, err = c.Migrate(small.Addr(), []int32{20, 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 1 || moved[0] != 20 {
		t.Fatalf("moved %v to a one-line destination, want [20]", moved)
	}
	if occ := small.Occupancy(); occ.Lines != 1 {
		t.Errorf("small destination holds %d lines, want 1", occ.Lines)
	}
	got, err = c.Fetch(21)
	if err != nil {
		t.Fatalf("refused line left the source: %v", err)
	}
	if len(got) != len(want) || got[0] != want[0] || got[2] != want[2] {
		t.Errorf("refused line fetched %v, stored %v", got, want)
	}
}

func TestConcurrentClients(t *testing.T) {
	s := startServer(t, 0)
	const clients = 8
	const linesEach = 40
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(s.Addr(), fmt.Sprintf("node-%d", id))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for line := int32(0); line < linesEach; line++ {
				if err := c.StoreAck(line, entriesN(4)); err != nil {
					errs <- err
					return
				}
			}
			for line := int32(0); line < linesEach; line++ {
				got, err := c.Fetch(line)
				if err != nil || len(got) != 4 {
					errs <- fmt.Errorf("client %d line %d: %v (%d)", id, line, err, len(got))
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if occ := s.Occupancy(); occ.Lines != 0 {
		t.Errorf("server left with %d lines", occ.Lines)
	}
}

func TestHelloRequired(t *testing.T) {
	s := startServer(t, 0)
	// Dial raw and skip the hello.
	c, err := Dial(s.Addr(), "x")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Valid client works; an empty owner is rejected at Dial.
	if _, err := Dial(s.Addr(), ""); err == nil {
		t.Error("empty owner accepted")
	}
}

func TestStat(t *testing.T) {
	s := startServer(t, 0)
	c := dial(t, s, "node-0")
	if err := c.StoreAck(1, entriesN(10)); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Lines != 1 || st.Bytes != 10*entryMemBytes {
		t.Errorf("stat = %+v", st)
	}
}
