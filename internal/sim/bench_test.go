package sim

import "testing"

// BenchmarkEventDispatch measures raw kernel event throughput (no process
// handshakes) — the floor cost of every simulated action.
func BenchmarkEventDispatch(b *testing.B) {
	k := NewKernel()
	n := 0
	var loop func()
	loop = func() {
		n++
		if n < b.N {
			k.After(Microsecond, loop)
		}
	}
	b.ResetTimer()
	k.After(0, loop)
	k.Run()
}

// BenchmarkWorkAccrual measures the deferred-charge fast path: Work calls
// are plain arithmetic until a blocking operation flushes them.
func BenchmarkWorkAccrual(b *testing.B) {
	k := NewKernel()
	k.Go("worker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Work(10 * Nanosecond)
		}
		p.Flush()
	})
	b.ResetTimer()
	k.Run()
}
