package sim

import "fmt"

// event is a scheduled wake-up of process p or, when p is nil, a callback.
// Events with equal times fire in scheduling order (seq breaks ties), which
// keeps the simulation deterministic.
type event struct {
	at  Time
	seq uint64
	p   *Proc
	fn  func()
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Kernel is a discrete-event simulator. The zero value is not usable; create
// one with NewKernel.
type Kernel struct {
	now    Time
	queue  []event // binary min-heap on (at, seq)
	seq    uint64
	ctl    chan struct{} // Run's (or Shutdown's) goroutine waits here while processes hold control
	procs  int           // live (not yet terminated) processes
	events uint64        // dispatched event count
	failed error         // first process or callback panic, re-raised from Run
	all    []*Proc       // every spawned process, for Shutdown
	down   bool          // set by Shutdown; blocked procs unwind on resume

	// woken is set by a callback that resumes a process (RecvTimeout's
	// deadline); the dispatch loop hands control to it once the callback
	// returns.
	woken *Proc

	// OnSpawn, when non-nil, is called from Go with the new process's name
	// and the current virtual time. It exists so an observer (the trace
	// layer) can record process creation without sim depending on it.
	OnSpawn func(name string, at Time)
}

// NewKernel returns a kernel with the clock at zero and an empty event queue.
func NewKernel() *Kernel {
	return &Kernel{ctl: make(chan struct{})}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Events returns the number of events dispatched so far.
func (k *Kernel) Events() uint64 { return k.events }

// Procs returns the number of live processes.
func (k *Kernel) Procs() int { return k.procs }

// At schedules fn to run at absolute time t. Scheduling in the past panics.
func (k *Kernel) At(t Time, fn func()) { k.schedule(t, nil, fn) }

// After schedules fn to run d from now. Negative d panics.
func (k *Kernel) After(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.At(k.now.Add(d), fn)
}

// wakeAt schedules process p to resume at absolute time t.
func (k *Kernel) wakeAt(t Time, p *Proc) { k.schedule(t, p, nil) }

func (k *Kernel) schedule(t Time, p *Proc, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	k.queue = append(k.queue, event{at: t, seq: k.seq, p: p, fn: fn})
	q := k.queue
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the earliest event.
func (k *Kernel) pop() event {
	q := k.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	k.queue = q
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && q[l].before(&q[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && q[r].before(&q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	return top
}

// Go spawns a new simulation process at the current time. The body runs in
// its own goroutine, but the kernel guarantees only one process executes at
// a time. The name appears in diagnostics.
func (k *Kernel) Go(name string, body func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, body: body, resume: make(chan struct{})}
	if k.OnSpawn != nil {
		k.OnSpawn(name, k.now)
	}
	k.procs++
	k.all = append(k.all, p)
	k.wakeAt(k.now, p)
	return p
}

// Shutdown terminates every process still blocked on a Chan, Resource, or
// sleep by resuming it into an unwinding path (its goroutine exits, running
// deferred functions). A drained simulation otherwise leaves those
// goroutines parked forever, pinning the whole run's memory — fatal for
// hosts that execute many simulations in one process. Call after Run.
func (k *Kernel) Shutdown() {
	k.down = true
	for _, p := range k.all {
		if p.done || !p.started {
			continue
		}
		p.resume <- struct{}{}
		<-k.ctl
	}
	k.all = nil
}

// Run dispatches events until the queue is empty, then returns the final
// virtual time. Processes still blocked on a Chan or Resource at that point
// simply never resume (as in any event simulation, a silent system is a
// finished system). If a process panicked, or a callback panicked while a
// process goroutine was dispatching, Run re-panics with its value.
//
// Run's goroutine dispatches only until the first wake-up; from then on the
// process that blocks or ends dispatches on its own goroutine (see
// Proc.yield) and control comes back here once the queue drains or a
// process fails.
func (k *Kernel) Run() Time {
	if p := k.next(); p != nil {
		k.handoff(p)
		<-k.ctl
	}
	if k.failed != nil {
		panic(k.failed)
	}
	return k.now
}

// next dispatches events in (at, seq) order, running callbacks inline, until
// one resumes a process; it returns that process, or nil once the queue is
// empty.
func (k *Kernel) next() *Proc {
	for len(k.queue) > 0 {
		ev := k.pop()
		k.now = ev.at
		k.events++
		if ev.p != nil {
			return ev.p
		}
		ev.fn()
		if p := k.woken; p != nil {
			k.woken = nil
			return p
		}
	}
	return nil
}

// dispatch is next run on a process goroutine. It returns nil once the
// queue drains, a callback panics (the panic is recorded for Run to
// re-raise rather than unwinding the process that happened to dispatch it),
// or Shutdown is unwinding processes.
func (k *Kernel) dispatch() (p *Proc) {
	if k.down {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			k.failed = fmt.Errorf("sim: event at %v panicked: %v", k.now, r)
			p = nil
		}
	}()
	return k.next()
}

// handoff passes control to p, starting its goroutine on its first wake, or
// back to the goroutine waiting in Run or Shutdown when p is nil. The caller
// must block (or exit) right after.
func (k *Kernel) handoff(p *Proc) {
	switch {
	case p == nil:
		k.ctl <- struct{}{}
	case !p.started:
		p.started = true
		go p.run()
	default:
		p.resume <- struct{}{}
	}
}
