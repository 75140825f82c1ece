package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyKernelRuns(t *testing.T) {
	k := NewKernel()
	if got := k.Run(); got != 0 {
		t.Fatalf("empty kernel finished at %v, want 0", got)
	}
}

func TestAfterOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.After(20*Millisecond, func() { order = append(order, 2) })
	k.After(10*Millisecond, func() { order = append(order, 1) })
	k.After(30*Millisecond, func() { order = append(order, 3) })
	end := k.Run()
	if end != Time(30*Millisecond) {
		t.Errorf("end time %v, want 30ms", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("event order %v, want [1 2 3]", order)
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(5*Millisecond, func() { order = append(order, i) })
	}
	k.Run()
	if !sort.IntsAreSorted(order) {
		t.Errorf("same-time events fired out of scheduling order: %v", order)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.After(10*Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(Time(5*Millisecond), func() {})
	})
	k.Run()
}

func TestProcSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var at1, at2 Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(100 * Millisecond)
		at1 = p.Now()
		p.Sleep(50 * Millisecond)
		at2 = p.Now()
	})
	end := k.Run()
	if at1 != Time(100*Millisecond) {
		t.Errorf("after first sleep at %v, want 100ms", at1)
	}
	if at2 != Time(150*Millisecond) {
		t.Errorf("after second sleep at %v, want 150ms", at2)
	}
	if end != at2 {
		t.Errorf("kernel ended at %v, want %v", end, at2)
	}
}

func TestWorkIsLazyButFlushedBeforeBlocking(t *testing.T) {
	k := NewKernel()
	var observed Time
	k.Go("worker", func(p *Proc) {
		p.Work(30 * Millisecond)
		p.Work(20 * Millisecond)
		// Now() includes pending work even before flush.
		if p.Now() != Time(50*Millisecond) {
			t.Errorf("Now with pending work = %v, want 50ms", p.Now())
		}
		// Kernel clock has not moved yet.
		if k.Now() != 0 {
			t.Errorf("kernel clock moved to %v before flush", k.Now())
		}
		p.Sleep(10 * Millisecond) // flushes 50ms then sleeps 10ms
		observed = p.Now()
	})
	k.Run()
	if observed != Time(60*Millisecond) {
		t.Errorf("after work+sleep at %v, want 60ms", observed)
	}
}

func TestMultipleProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var log []string
		for _, n := range []string{"a", "b", "c"} {
			n := n
			k.Go(n, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(Duration(7+len(n)) * Millisecond)
					log = append(log, n)
				}
			})
		}
		k.Run()
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		if got := run(); len(got) != len(first) {
			t.Fatalf("nondeterministic run length")
		} else {
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("nondeterministic interleaving: %v vs %v", got, first)
				}
			}
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("process panic was not re-raised from Run")
		}
	}()
	k := NewKernel()
	k.Go("bomb", func(p *Proc) {
		p.Sleep(Millisecond)
		panic("boom")
	})
	k.Run()
}

// Property: the kernel clock is monotonically nondecreasing over any random
// schedule of events.
func TestClockMonotonicProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		var times []Time
		record := func() { times = append(times, k.Now()) }
		for i := 0; i < int(n%40)+1; i++ {
			k.After(Duration(rng.Intn(1000))*Microsecond, record)
		}
		// Nested scheduling from inside events.
		k.After(Duration(rng.Intn(1000))*Microsecond, func() {
			for i := 0; i < 5; i++ {
				k.After(Duration(rng.Intn(100))*Microsecond, record)
			}
		})
		k.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestEventsCounter(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 7; i++ {
		k.After(Duration(i)*Millisecond, func() {})
	}
	k.Run()
	if k.Events() != 7 {
		t.Errorf("Events() = %d, want 7", k.Events())
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	k := NewKernel()
	k.Go("neg", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative sleep did not panic")
			}
		}()
		p.Sleep(-1)
	})
	func() {
		defer func() { recover() }() // the panic also surfaces via Run
		k.Run()
	}()
}

func TestSleepUntil(t *testing.T) {
	k := NewKernel()
	k.Go("u", func(p *Proc) {
		p.SleepUntil(Time(40 * Millisecond))
		if p.Now() != Time(40*Millisecond) {
			t.Errorf("SleepUntil landed at %v", p.Now())
		}
		p.SleepUntil(Time(10 * Millisecond)) // past: no-op
		if p.Now() != Time(40*Millisecond) {
			t.Errorf("SleepUntil(past) moved clock to %v", p.Now())
		}
	})
	k.Run()
}

func TestShutdownUnwindsBlockedProcs(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "never")
	cleaned := 0
	for i := 0; i < 5; i++ {
		k.Go("stuck", func(p *Proc) {
			defer func() { cleaned++ }()
			c.Recv(p) // blocks forever
		})
	}
	r := NewResource(k, "held", 1)
	k.Go("holder", func(p *Proc) {
		defer func() { cleaned++ }()
		r.Acquire(p)
		p.Sleep(Hour)
		c.Recv(p)
	})
	k.Go("waiter", func(p *Proc) {
		defer func() { cleaned++ }()
		p.Sleep(Millisecond)
		r.Acquire(p) // blocks behind holder... then holder blocks forever
	})
	k.Run()
	if k.Procs() == 0 {
		t.Fatal("test needs still-blocked procs after Run")
	}
	k.Shutdown()
	if k.Procs() != 0 {
		t.Errorf("Procs = %d after Shutdown, want 0", k.Procs())
	}
	if cleaned != 7 {
		t.Errorf("deferred cleanups ran %d times, want 7", cleaned)
	}
}

func TestShutdownIdempotentAndSafeWhenAllDone(t *testing.T) {
	k := NewKernel()
	k.Go("quick", func(p *Proc) { p.Sleep(Millisecond) })
	k.Run()
	k.Shutdown()
	k.Shutdown()
	if k.Procs() != 0 {
		t.Errorf("Procs = %d", k.Procs())
	}
}

func TestProcPanicWithOthersBlocked(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "never")
	r := NewResource(k, "held", 1)
	cleaned := 0
	k.Go("holder", func(p *Proc) {
		defer func() { cleaned++ }()
		r.Acquire(p)
		c.Recv(p)
	})
	k.Go("queued", func(p *Proc) {
		defer func() { cleaned++ }()
		r.Acquire(p)
	})
	k.Go("sleeper", func(p *Proc) {
		defer func() { cleaned++ }()
		p.Sleep(Hour)
	})
	k.Go("bomb", func(p *Proc) {
		p.Sleep(Millisecond)
		panic("boom")
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("process panic was not re-raised from Run")
			}
		}()
		k.Run()
	}()
	if k.Now() != Time(Millisecond) {
		t.Errorf("Run stopped at %v, want the panic's instant 1ms", k.Now())
	}
	if k.Procs() != 3 {
		t.Fatalf("Procs = %d after the panic, want 3 blocked", k.Procs())
	}
	k.Shutdown()
	if k.Procs() != 0 || cleaned != 3 {
		t.Errorf("after Shutdown Procs = %d, cleanups = %d; want 0, 3", k.Procs(), cleaned)
	}
}

func TestCallbackPanicOnProcessGoroutineReachesRun(t *testing.T) {
	k := NewKernel()
	k.Go("sleeper", func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("a callback's panic unwound the dispatching process: %v", r)
			}
		}()
		k.After(Millisecond, func() { panic("bad event") })
		p.Sleep(Second) // dispatches the callback on this goroutine
	})
	defer func() {
		if recover() == nil {
			t.Error("callback panic was not re-raised from Run")
		}
		k.Shutdown()
	}()
	k.Run()
}

// allocsPerIteration is the allocation count of a simulation whose body runs
// n iterations, less that of one running n/2: the set-up cancels, so what is
// left is what the iterations themselves allocate.
func allocsPerIteration(n int, body func(k *Kernel, n int)) float64 {
	run := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			k := NewKernel()
			body(k, n)
			k.Run()
		})
	}
	return (run(n) - run(n/2)) / float64(n-n/2)
}

func TestSleepLoopAllocatesNothing(t *testing.T) {
	got := allocsPerIteration(2000, func(k *Kernel, n int) {
		k.Go("sleeper", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(Microsecond)
			}
		})
	})
	if got != 0 {
		t.Errorf("Sleep allocates %.3f per iteration, want 0", got)
	}
}

func TestChanPingPongAllocatesNothing(t *testing.T) {
	got := allocsPerIteration(2000, func(k *Kernel, n int) {
		ping := NewChan[int](k, "ping")
		pong := NewChan[int](k, "pong")
		k.Go("a", func(p *Proc) {
			for i := 0; i < n; i++ {
				ping.Send(p, i)
				pong.Recv(p)
			}
		})
		k.Go("b", func(p *Proc) {
			for i := 0; i < n; i++ {
				pong.Send(p, ping.Recv(p))
			}
		})
	})
	if got != 0 {
		t.Errorf("Chan ping-pong allocates %.3f per iteration, want 0", got)
	}
}
