// Package sim provides the process-oriented discrete-event simulation kernel
// every timed component of the reproduction runs on.
//
// A Kernel owns a virtual clock and an event queue. Processes are ordinary
// goroutines spawned with Kernel.Go; at most one process runs at any instant,
// so process code needs no locking. Control moves by baton passing: a
// process that blocks or ends runs the dispatch loop itself on its own
// goroutine, popping events in (time, sequence) order and running callbacks
// inline until one wakes a process. If that is the blocking process itself
// (a Sleep with nothing due before it), it simply carries on, with no
// goroutine switch; otherwise it hands the baton straight to the woken
// process and parks. Run's goroutine gets control back only when the queue
// drains or a process fails. Events are stored by value in a binary heap and
// a wake-up carries the process to resume, so dispatch allocates nothing per
// event.
//
// The kernel is deterministic: given the same program and seeds, event
// order — and therefore every virtual timestamp in the run — is identical
// across executions. That determinism is what lets the experiment harness
// reproduce the paper's Figures 3–5 exactly and what the golden trace test
// in internal/core guards.
//
// Key types:
//
//   - Kernel: clock, event queue, process registry. Run dispatches events
//     until no work remains; At and After schedule a callback; Shutdown
//     unwinds processes still blocked after Run; the OnSpawn hook observes
//     process creation (used by the trace layer).
//   - Proc: a running process's handle. Sleep advances virtual time, Work
//     accrues fine-grained CPU charges that are flushed before the process
//     next blocks, and BindCPU serializes the process on a CPU resource.
//   - Chan[T]: a typed rendezvous/buffering channel in virtual time, with
//     FIFO waiter order and RecvTimeout; waiter records and the buffer are
//     reused, so a steady message flow allocates nothing.
//   - Resource: a capacity-k server with a FIFO queue, used for NICs, disk
//     arms, and CPUs; it tracks queue length and busy time for the gauges
//     the trace layer samples.
//   - Time and Duration: virtual nanoseconds (int64), kept separate from
//     time.Time so wall-clock and simulated time cannot be mixed up.
//
// Example — two processes exchanging one value at t=1s:
//
//	k := sim.NewKernel()
//	ch := sim.NewChan[int](k, "pipe")
//	k.Go("producer", func(p *sim.Proc) {
//	    p.Sleep(sim.Second)
//	    ch.Send(p, 42)
//	})
//	k.Go("consumer", func(p *sim.Proc) {
//	    v := ch.Recv(p) // unblocks at t=1s with v == 42
//	    _ = v
//	})
//	k.Run()
package sim
