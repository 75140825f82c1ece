package rmtp

import (
	"fmt"
	"testing"

	"repro/internal/memtable"
)

func benchServerClient(b *testing.B) (*Server, *Client) {
	b.Helper()
	s := NewServer(0)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	c, err := Dial(s.Addr(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return s, c
}

// BenchmarkStoreFetchLoopback measures a full swap-out + pagefault round
// trip over real loopback TCP — the live analogue of the paper's ≈2 ms
// ATM pagefault.
func BenchmarkStoreFetchLoopback(b *testing.B) {
	_, c := benchServerClient(b)
	entries := entriesN(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := int32(i % 1024)
		if err := c.StoreAck(line, entries); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Fetch(line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateLoopback measures pipelined one-way update frames carrying
// one item each: the fixed per-frame cost that coalescing amortizes.
func BenchmarkUpdateLoopback(b *testing.B) {
	_, c := benchServerClient(b)
	if err := c.StoreAck(1, entriesN(6)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.UpdateBatch([]UpdateItem{{Line: 1, Key: "key-003"}}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if _, err := c.Fetch(1); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEncodeDecodeEntries(b *testing.B) {
	entries := make([]memtable.Entry, 64)
	for i := range entries {
		entries[i] = memtable.Entry{Key: fmt.Sprintf("key-%08d", i), Count: int32(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := memtable.AppendEntries(nil, entries)
		if _, err := memtable.DecodeEntries(buf); err != nil {
			b.Fatal(err)
		}
	}
}
