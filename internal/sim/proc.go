package sim

import (
	"fmt"
	"runtime"
)

// Proc is a simulation process: a goroutine whose execution interleaves with
// virtual time under kernel control. All Proc methods must be called from the
// process's own goroutine.
type Proc struct {
	k       *Kernel
	name    string
	body    func(*Proc)
	resume  chan struct{}
	done    bool
	started bool

	// pending is CPU work accumulated via Work but not yet turned into a
	// Sleep. It is flushed before any operation that can observe time or
	// interact with other processes, so causality is preserved while
	// avoiding one kernel handshake per fine-grained charge.
	pending Duration

	// cpu, when bound, is the processor this process's Work contends on:
	// flushing pending work acquires the resource for the charge's duration,
	// so co-located processes (on a uniprocessor node) serialize their
	// compute while pure delays (network, device waits) still overlap.
	cpu *Resource
}

// BindCPU makes all future Work charges contend on the given capacity
// resource (typically the node's processor). Pass nil to unbind.
func (p *Proc) BindCPU(r *Resource) { p.cpu = r }

// Name returns the process name given at spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time, including any pending Work charge.
func (p *Proc) Now() Time { return p.k.now.Add(p.pending) }

func (p *Proc) run() {
	defer p.exit()
	p.body(p)
}

// exit ends the process and passes the baton on: it dispatches the next
// wake-up itself, or hands control back to Run if the process panicked.
func (p *Proc) exit() {
	k := p.k
	p.done = true
	p.body = nil
	k.procs--
	if r := recover(); r != nil {
		k.failed = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
	}
	var next *Proc
	if k.failed == nil {
		next = k.dispatch()
	}
	k.handoff(next)
}

// yield blocks p until its next wake-up. It dispatches events on p's own
// goroutine: if the first wake-up is p's own, it returns without a goroutine
// switch; otherwise it hands control straight to the woken process (or back
// to Run) and waits. If the kernel is shutting down, the resume unwinds this
// goroutine instead (exit still runs and hands control back).
func (p *Proc) yield() {
	k := p.k
	next := k.dispatch()
	if next == p {
		return
	}
	k.handoff(next)
	<-p.resume
	if k.down {
		runtime.Goexit()
	}
}

// Work accrues d of CPU time to be charged lazily. It is the cheap way to
// account for per-item computation inside tight loops: the charge is applied
// as a single Sleep at the next blocking operation (or explicit Flush).
func (p *Proc) Work(d Duration) {
	if d < 0 {
		panic("sim: negative work")
	}
	p.pending += d
}

// Flush converts accumulated Work into elapsed virtual time, holding the
// bound CPU (if any) for the duration of the charge.
func (p *Proc) Flush() {
	if p.pending <= 0 {
		return
	}
	d := p.pending
	p.pending = 0
	if p.cpu != nil {
		p.cpu.acquire(p)
		p.sleep(d)
		p.cpu.release()
		return
	}
	p.sleep(d)
}

// Sleep advances virtual time by d (after flushing pending work).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.Flush()
	p.sleep(d)
}

func (p *Proc) sleep(d Duration) {
	p.k.wakeAt(p.k.now.Add(d), p)
	p.yield()
}

// SleepUntil advances virtual time to absolute time t (no-op if t is in the
// past after flushing pending work).
func (p *Proc) SleepUntil(t Time) {
	p.Flush()
	if t <= p.k.now {
		return
	}
	p.k.wakeAt(t, p)
	p.yield()
}
