package transport

import (
	"sync"
	"time"

	"repro/internal/sim"
)

// RealProc is the TCP backend's execution context: a plain goroutine on the
// wall clock. Work charges are ignored — real compute takes real time —
// while Sleep is a true wall-clock sleep, since backoff and polling
// intervals are behavioral, not accounting.
type RealProc struct {
	start time.Time
}

// NewRealProc returns a process clock starting now.
func NewRealProc() *RealProc { return &RealProc{start: time.Now()} }

// Work does nothing: the modeled CPU time of a wall-clock process is the
// time its code takes.
func (p *RealProc) Work(sim.Duration) {}

// Sleep blocks the goroutine for d of wall-clock time.
func (p *RealProc) Sleep(d sim.Duration) {
	if d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// Now returns wall-clock time elapsed since the process started, on the
// sim.Time axis (both are nanoseconds).
func (p *RealProc) Now() sim.Time { return sim.Time(time.Since(p.start)) }

// Flush is a no-op: there is no modeled work to settle.
func (p *RealProc) Flush() {}

var _ Proc = (*RealProc)(nil)

// realHandle resolves when the spawned goroutine returns.
type realHandle struct {
	ch   chan error
	err  error
	read bool
}

// Wait blocks until the goroutine finishes and returns its error. Safe to
// call more than once.
func (h *realHandle) Wait(p Proc) error {
	if !h.read {
		h.err = <-h.ch
		h.read = true
	}
	return h.err
}

// RealSpawner runs node processes as goroutines.
type RealSpawner struct {
	wg sync.WaitGroup
}

// Go starts fn on a fresh goroutine with its own RealProc.
func (s *RealSpawner) Go(node int, name string, fn func(p Proc) error) Handle {
	h := &realHandle{ch: make(chan error, 1)}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		h.ch <- fn(NewRealProc())
	}()
	return h
}

// WaitAll blocks until every goroutine spawned so far has returned.
func (s *RealSpawner) WaitAll() { s.wg.Wait() }

var _ Spawner = (*RealSpawner)(nil)
