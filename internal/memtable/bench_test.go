package memtable

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkProbeResident measures the in-memory fast path.
func BenchmarkProbeResident(b *testing.B) {
	tab, _ := New(Config{Lines: 1024}, nil)
	k := sim.NewKernel()
	k.Go("bench", func(p *sim.Proc) {
		for i := 0; i < 1024; i++ {
			_ = tab.Insert(p, i, []byte(key(i)))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = tab.Probe(p, i%1024, []byte(key(i%1024)))
		}
	})
	k.Run()
}

// BenchmarkProbeFaulting measures the pagefault path through a fake pager.
func BenchmarkProbeFaulting(b *testing.B) {
	pager := newFakePager()
	tab, _ := New(Config{
		Lines: 256, LimitBytes: 16 * EntryMemBytes, Policy: SimpleSwap,
	}, pager)
	k := sim.NewKernel()
	k.Go("bench", func(p *sim.Proc) {
		for i := 0; i < 256; i++ {
			_ = tab.Insert(p, i, []byte(key(i)))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Stride guarantees misses against a 16-line residency.
			_ = tab.Probe(p, (i*37)%256, []byte(key((i*37)%256)))
		}
	})
	k.Run()
}

// BenchmarkRemoteUpdatePath measures the one-way update path.
func BenchmarkRemoteUpdatePath(b *testing.B) {
	pager := newFakePager()
	tab, _ := New(Config{
		Lines: 256, LimitBytes: 16 * EntryMemBytes, Policy: RemoteUpdate,
	}, pager)
	k := sim.NewKernel()
	k.Go("bench", func(p *sim.Proc) {
		for i := 0; i < 256; i++ {
			_ = tab.Insert(p, i, []byte(key(i)))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = tab.Probe(p, (i*37)%256, []byte(key((i*37)%256)))
		}
	})
	k.Run()
}
