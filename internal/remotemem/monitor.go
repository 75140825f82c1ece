package remotemem

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Monitor is the process on a memory-available node that samples the amount
// of available memory periodically and broadcasts it to all application
// execution nodes — the paper's `netstat -k` poller with its 3 s default
// interval (§5.1: "The interval of monitoring the amount of available memory
// is 3sec which is considered frequent enough for monitoring and not too
// heavy for application execution nodes").
type Monitor struct {
	store    *Store
	ep       *transport.SimEndpoint
	layout   transport.Layout
	interval sim.Duration
	stop     bool
	reports  uint64

	// Rec, when non-nil, receives one KReport event and a free_bytes gauge
	// point per broadcast round.
	Rec *trace.Recorder
}

// sampleCPU is the compute cost of one sample on the memory-available node.
// The paper's `netstat -k` is a forked external command, which is why §5.4
// finds that intervals "shorter than 1sec" degrade the system: the sampling
// steals CPU from the swap-service process. It contends on the node CPU when
// the monitor process is bound to one.
const sampleCPU = 40 * sim.Millisecond

// NewMonitor creates a monitor for the given store over its endpoint.
func NewMonitor(ep *transport.SimEndpoint, layout transport.Layout, store *Store, interval sim.Duration) *Monitor {
	if interval <= 0 {
		panic("remotemem: monitor interval must be positive")
	}
	return &Monitor{store: store, ep: ep, layout: layout, interval: interval}
}

// Reports returns how many broadcast rounds have run.
func (m *Monitor) Reports() uint64 { return m.reports }

// Stop makes the monitor exit after its current sleep.
func (m *Monitor) Stop() { m.stop = true }

// Run broadcasts availability reports forever (until Stop).
func (m *Monitor) Run(p transport.Proc) {
	for !m.stop {
		p.Sleep(m.interval)
		if m.stop {
			return
		}
		p.Work(sampleCPU) // the `netstat -k` sample
		report := MemReport{Node: m.store.Node(), FreeBytes: m.store.FreeBytes()}
		if m.Rec != nil {
			m.Rec.Gauge(p.Now(), m.store.Node(), "free_bytes", float64(report.FreeBytes))
			if m.Rec.Wants(trace.KReport) {
				m.Rec.Emit(trace.Event{
					At: p.Now(), Node: m.store.Node(), Kind: trace.KReport,
					Line: -1, Peer: -1, Bytes: report.FreeBytes,
				})
			}
		}
		for _, app := range m.layout.AppIDs() {
			if err := m.ep.Send(p, app, transport.PortMon, report, reportWireBytes); err != nil {
				return // fabric torn down
			}
		}
		m.reports++
	}
}

// AvailTable is the application-node shared-memory table of reported remote
// availability: "The client process has a memory area which can be shared
// with application processes and the received information about the amount
// of memory at each node is written on the shared memory" (§4.2).
type AvailTable struct {
	free        map[int]int64 // last reported free bytes per memory node
	sinceReport map[int]int64 // bytes this node stored there since that report
	lastReport  map[int]sim.Time
	// ReserveBytes is headroom subtracted from reported availability before
	// choosing a destination, so a destination is never filled to the brim
	// on stale information.
	ReserveBytes int64
}

// NewAvailTable returns an empty table.
func NewAvailTable() *AvailTable {
	return &AvailTable{
		free:        make(map[int]int64),
		sinceReport: make(map[int]int64),
		lastReport:  make(map[int]sim.Time),
	}
}

// Report records a fresh availability report.
func (a *AvailTable) Report(at sim.Time, node int, freeBytes int64) {
	a.free[node] = freeBytes
	a.sinceReport[node] = 0
	a.lastReport[node] = at
}

// Seed primes availability without recording a liveness heartbeat: boot-time
// capacity hints are not evidence the store's monitor is alive, and must not
// start the DeadAfter clock before the first real report arrives.
func (a *AvailTable) Seed(node int, freeBytes int64) {
	a.free[node] = freeBytes
	a.sinceReport[node] = 0
}

// Charge notes that the local node shipped bytes to the given store since
// its last report (the client-side correction for report staleness).
func (a *AvailTable) Charge(node int, bytes int64) {
	a.sinceReport[node] += bytes
}

// LastReport returns when a node last reported, for heartbeat failure
// detection; ok is false when the node never reported.
func (a *AvailTable) LastReport(node int) (sim.Time, bool) {
	t, ok := a.lastReport[node]
	return t, ok
}

// Effective returns the usable availability estimate for one node.
func (a *AvailTable) Effective(node int) int64 {
	return a.free[node] - a.sinceReport[node] - a.ReserveBytes
}

// Known returns the node ids with at least one report, sorted.
func (a *AvailTable) Known() []int {
	out := make([]int, 0, len(a.free))
	for n := range a.free {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Pick chooses the destination with the most effective availability that can
// absorb need bytes. ok is false when no destination fits.
func (a *AvailTable) Pick(need int64) (node int, ok bool) {
	best, bestFree := -1, int64(0)
	for _, n := range a.Known() {
		if eff := a.Effective(n); eff >= need && eff > bestFree {
			best, bestFree = n, eff
		}
	}
	return best, best >= 0
}

// PickExcluding is Pick restricted to nodes other than excluded ones.
func (a *AvailTable) PickExcluding(need int64, excluded map[int]bool) (int, bool) {
	best, bestFree := -1, int64(0)
	for _, n := range a.Known() {
		if excluded[n] {
			continue
		}
		if eff := a.Effective(n); eff >= need && eff > bestFree {
			best, bestFree = n, eff
		}
	}
	return best, best >= 0
}
