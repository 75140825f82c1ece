package perf

import (
	"testing"

	"repro/internal/sim"
)

// simEventsPerOp is how many kernel wake-ups one op of the DES kernel benches
// makes, so that a fixed iteration count (cmd/bench -benchtime 10x) still
// times enough events to be stable.
const simEventsPerOp = 1000

// BenchSimSleep is simEventsPerOp Proc.Sleep calls of one process per op:
// each schedules one wake-up that the process dispatches to itself without a
// goroutine switch. It is the unit cost of every simulated delay and CPU
// charge; ns/event and allocs/op track the kernel's dispatch path.
func BenchSimSleep(b *testing.B) {
	k := sim.NewKernel()
	k.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N*simEventsPerOp; i++ {
			p.Sleep(sim.Microsecond)
		}
	})
	runSim(b, k)
}

// BenchSimChanPingPong is simEventsPerOp/2 round trips per op between two
// processes over two sim.Chans: every receive blocks and every send wakes the
// other process, so each event hands control from one goroutine to another.
// It is the unit cost of a simulated message.
func BenchSimChanPingPong(b *testing.B) {
	k := sim.NewKernel()
	ping := sim.NewChan[int](k, "ping")
	pong := sim.NewChan[int](k, "pong")
	n := b.N * simEventsPerOp / 2
	k.Go("a", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			ping.Send(p, i)
			pong.Recv(p)
		}
	})
	k.Go("b", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			pong.Send(p, ping.Recv(p))
		}
	})
	runSim(b, k)
}

// runSim times k.Run and reports the dispatch cost per event.
func runSim(b *testing.B, k *sim.Kernel) {
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(k.Events()), "ns/event")
	b.ReportMetric(float64(k.Events())/float64(b.N), "events/op")
}
