package chaos

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/memtable"
	"repro/internal/remotemem"
	"repro/internal/rmtp"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// SoakConfig parameterizes one soak run. Zero fields get working defaults.
type SoakConfig struct {
	// Seed drives the workload, the proxy jitter, and the client backoff
	// jitter. Same seed + same schedule = same logical run.
	Seed int64
	// Ops is how many line lifecycles (store, updates, fetch) to run.
	Ops int
	// KeysPerLine is how many candidate entries each line carries.
	KeysPerLine int
	// MaxUpdates bounds the one-way updates per lifecycle.
	MaxUpdates int
	// Schedule is the fault plan, applied on the operation counter.
	Schedule Schedule
	// SpillDir hosts the fallback spill file (default: a temp dir).
	SpillDir string
	// ServerCapacity is the rmtp server's memory budget (0 = unlimited).
	ServerCapacity int64
	// ServerOptions arm the server's overload protection.
	ServerOptions rmtp.ServerOptions
	// ClientOptions configure the rmtp client's robustness. Zero gets soak
	// defaults: 250ms deadlines, 3 retries, 2ms jittered backoff.
	ClientOptions rmtp.Options
	// Logf, when set, receives step-by-step diagnostics.
	Logf func(string, ...any)
	// Rec, when non-nil, receives a KChaos event per applied step (At is
	// the operation counter, in lieu of virtual time).
	Rec *trace.Recorder
}

// SoakReport is the outcome of a soak run: the observed end-state plus every
// layer's counters. FinalCounts is the invariant surface — two runs with the
// same seed and workload must produce identical maps, faults or not.
type SoakReport struct {
	FinalCounts  map[string]int64 // key -> final count, summed over fetches
	Ops          int
	StepsApplied int
	// Pager counts the TCPPager's shadow, verification and taint activity.
	Pager remotemem.TCPPagerStats
	// FallbackStores counts lines diverted to the spill file because the
	// server refused them (capacity NACK, open breaker, dead connection).
	FallbackStores uint64
	Client         rmtp.Metrics // the pager's rmtp client
	Proxy          ProxyStats
	Server         rmtp.ServerMetrics // state at shutdown (post-crash servers: the restarted one)
	Goroutines     int                // leaked goroutines still alive after teardown
	FDs            int                // leaked file descriptors after teardown (-1: unknown)
	Elapsed        time.Duration
}

// RunSoak drives a seeded workload of real rmtp traffic through a
// fault-injecting proxy against a real server, applying the schedule, and
// checks the end-state invariants. The pager under test is the TCP fleet's
// own: a one-server TCPPager dialed at the proxy, with a spill file as its
// disk tier. The invariants:
//
//   - no lost lines/updates: every key's final count equals the locally
//     computed model (the count a fault-free run produces),
//   - no duplicated lines/updates: no count exceeds the model,
//   - no goroutine or fd leaks once everything is shut down.
//
// Any violation is returned as an error; the report carries the counters
// either way (when non-nil).
func RunSoak(cfg SoakConfig) (*SoakReport, error) {
	start := time.Now()
	if cfg.Ops <= 0 {
		cfg.Ops = 100
	}
	if cfg.KeysPerLine <= 0 {
		cfg.KeysPerLine = 4
	}
	if cfg.MaxUpdates <= 0 {
		cfg.MaxUpdates = 6
	}
	if cfg.SpillDir == "" {
		dir, err := os.MkdirTemp("", "chaos-soak")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.SpillDir = dir
	}
	if cfg.ClientOptions == (rmtp.Options{}) {
		cfg.ClientOptions = rmtp.Options{
			Timeout: 250 * time.Millisecond,
			Retries: 3,
			Backoff: 2 * time.Millisecond,
			Jitter:  0.5,
		}
	}
	if cfg.ClientOptions.Seed == 0 {
		cfg.ClientOptions.Seed = cfg.Seed + 1
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	goroutinesBefore := runtime.NumGoroutine()
	fdsBefore := countFDs()

	// The stack under test: server <- proxy <- TCPPager, with a spill file as
	// the pager's disk tier.
	handle, err := StartServer(cfg.ServerCapacity, cfg.ServerOptions)
	if err != nil {
		return nil, err
	}
	defer handle.Close()
	proxy, err := NewProxy(handle.Addr(), cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	defer proxy.Close()
	tp, err := remotemem.NewTCPPager("soak", []string{proxy.Addr()}, cfg.ClientOptions)
	if err != nil {
		return nil, err
	}
	defer tp.Close()
	tp.SetLogger(logf)
	spill, err := memtable.NewFilePager(filepath.Join(cfg.SpillDir, "soak-spill"))
	if err != nil {
		return nil, err
	}
	defer spill.Close()
	tp.SpillTo(spill)
	p := transport.NewRealProc()

	rep := &SoakReport{FinalCounts: make(map[string]int64), Ops: cfg.Ops}
	model := make(map[string]int64)
	rng := rand.New(rand.NewSource(cfg.Seed))
	sched := append(Schedule(nil), cfg.Schedule...)
	sched.sort()
	next := 0

	var firstErr error
	for op := 0; op < cfg.Ops; op++ {
		for next < len(sched) && sched[next].AtOp <= op {
			step := sched[next]
			next++
			rep.StepsApplied++
			logf("chaos: applying %s", step)
			if cfg.Rec.Wants(trace.KChaos) {
				cfg.Rec.Emit(trace.Event{
					At: sim.Time(op), Node: 0, Kind: trace.KChaos,
					Name: step.Note, Line: -1, Peer: -1,
				})
			}
			if step.Faults != nil {
				proxy.SetFaults(*step.Faults)
			}
			if step.ResetConns {
				proxy.ResetAll()
			}
			if step.CrashServer {
				handle.Crash()
			}
			if step.RestartServer {
				if err := handle.Restart(); err != nil {
					return rep, err
				}
			}
		}

		// One line lifecycle. The workload draws are made unconditionally,
		// so the rng stream — and with it the model — is identical however
		// the faults land.
		line := op
		entries := make([]memtable.Entry, cfg.KeysPerLine)
		for j := range entries {
			key := fmt.Sprintf("L%d/k%d", line, j)
			entries[j] = memtable.Entry{Key: key, Count: int32(rng.Intn(5))}
			model[key] = int64(entries[j].Count)
		}
		updates := rng.Intn(cfg.MaxUpdates + 1)
		targets := make([]string, updates)
		for u := range targets {
			targets[u] = entries[rng.Intn(len(entries))].Key
			model[targets[u]]++
		}

		loc, err := tp.StoreOut(p, line, entries)
		if err != nil {
			firstErr = fmt.Errorf("op %d: store: %w", op, err)
			break
		}
		for _, key := range targets {
			if err := tp.Update(p, line, loc, key); err != nil {
				firstErr = fmt.Errorf("op %d: update: %w", op, err)
				break
			}
		}
		if firstErr != nil {
			break
		}
		got, err := tp.FetchIn(p, line, loc)
		if err != nil {
			firstErr = fmt.Errorf("op %d: fetch: %w", op, err)
			break
		}
		for _, e := range got {
			rep.FinalCounts[e.Key] += int64(e.Count)
		}
	}

	rep.Pager = tp.Stats()
	rep.FallbackStores = rep.Pager.FallbackStores
	rep.Client = tp.ClientMetrics()
	rep.Proxy = proxy.Stats()
	if srv := handle.Server(); srv != nil {
		rep.Server = srv.Metrics()
	}

	// Teardown, then leak checks: everything the soak started must be gone.
	tp.Close()
	proxy.Close()
	handle.Close()
	spill.Close()
	rep.Goroutines, rep.FDs = settleLeaks(goroutinesBefore, fdsBefore)
	rep.Elapsed = time.Since(start)

	if firstErr != nil {
		return rep, firstErr
	}
	if err := checkCounts(rep.FinalCounts, model); err != nil {
		return rep, err
	}
	if rep.Goroutines > 0 {
		return rep, fmt.Errorf("chaos: %d goroutines leaked past teardown", rep.Goroutines)
	}
	if rep.FDs > 0 {
		return rep, fmt.Errorf("chaos: %d file descriptors leaked past teardown", rep.FDs)
	}
	return rep, nil
}

// checkCounts diffs the observed end-state against the model, naming the
// first few divergent keys so a failure is diagnosable from the log.
func checkCounts(got, want map[string]int64) error {
	var lost, dup, diff int
	var sample string
	for key, w := range want {
		g := got[key]
		switch {
		case g < w:
			lost++
		case g > w:
			dup++
		}
		if g != w && diff < 3 {
			diff++
			sample += fmt.Sprintf(" [%s: got %d want %d]", key, g, w)
		}
	}
	extra := 0
	for key := range got {
		if _, ok := want[key]; !ok {
			extra++
			if diff < 3 {
				diff++
				sample += fmt.Sprintf(" [%s: unexpected]", key)
			}
		}
	}
	if lost+dup+extra > 0 {
		return fmt.Errorf("chaos: end-state diverged: %d keys low (lost updates), %d keys high (duplicates), %d unexpected;%s",
			lost, dup, extra, sample)
	}
	return nil
}

// settleLeaks waits for goroutine/fd counts to return to their pre-soak
// levels, returning how many remain leaked after the grace period.
func settleLeaks(goroutinesBefore, fdsBefore int) (goroutines, fds int) {
	deadline := time.Now().Add(3 * time.Second)
	for {
		// A small slack absorbs runtime-internal goroutines (GC, netpoll)
		// that come and go independently of the soak.
		goroutines = runtime.NumGoroutine() - goroutinesBefore - 2
		fds = 0
		if fdsBefore >= 0 {
			if now := countFDs(); now >= 0 {
				fds = now - fdsBefore - 2
			}
		}
		if goroutines < 0 {
			goroutines = 0
		}
		if fds < 0 {
			fds = 0
		}
		if goroutines == 0 && fds == 0 {
			return
		}
		if time.Now().After(deadline) {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// countFDs returns the process's open descriptor count, or -1 where
// /proc is unavailable.
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}
