// Package core assembles complete simulated-cluster mining runs: it builds
// the kernel, network, memory-available node stores and monitors (or disk
// swap devices), wires the application nodes' pagers, injects the
// memory-withdrawal failures of the migration experiment, runs HPA, and
// returns the combined result. It is the engine under the repository's
// public API and the experiment harnesses.
package core

import (
	"errors"
	"fmt"

	"repro/internal/disk"
	"repro/internal/hpa"
	"repro/internal/itemset"
	"repro/internal/memtable"
	"repro/internal/quest"
	"repro/internal/remotemem"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Backend selects the swap device used when a memory limit is set.
type Backend int

const (
	// BackendNone runs without swapping (no memory limit allowed).
	BackendNone Backend = iota
	// BackendRemote swaps to memory-available nodes (the paper's proposal).
	BackendRemote
	// BackendDisk swaps to a local disk (the paper's baseline).
	BackendDisk
)

func (b Backend) String() string {
	switch b {
	case BackendNone:
		return "none"
	case BackendRemote:
		return "remote-memory"
	case BackendDisk:
		return "disk"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Withdrawal makes one memory-available node lose its spare memory during
// the run (the Fig. 5 experiment's signal): at virtual time At, other
// processes claim its whole memory, its monitor reports shortage, and the
// application nodes must migrate their lines away.
type Withdrawal struct {
	At   sim.Duration
	Node int // index into the memory-available nodes (0-based)
}

// Crash silences one memory-available node at a virtual time: unlike a
// Withdrawal (graceful — the node reports shortage and keeps serving while
// lines migrate away), a crashed node goes network-silent with no warning,
// exercising the heartbeat/timeout failure-detection path.
type Crash struct {
	At   sim.Duration
	Node int // index into the memory-available nodes (0-based)
}

// Config is a complete run description.
type Config struct {
	AppNodes int
	MemNodes int

	MinSupport float64
	TotalLines int   // hash lines across all app nodes
	LimitBytes int64 // per-node candidate-memory limit; 0 = unlimited
	Policy     memtable.Policy
	Eviction   memtable.Eviction
	Hash       hpa.HashKind
	Backend    Backend
	MaxPasses  int

	Net             simnet.Config
	Costs           hpa.CPUCosts
	RemoteCosts     remotemem.Costs
	DiskProfile     disk.Profile
	MonitorInterval sim.Duration
	StoreCapacity   int64 // spare bytes per memory-available node

	Withdrawals []Withdrawal

	// Crashes silences memory-available nodes mid-run (fail-stop failures).
	Crashes []Crash
	// Faults is an arbitrary network fault plan (drop/delay/partition rules
	// and raw node crashes) installed on the simulated interconnect.
	Faults simnet.FaultPlan

	// Failure-detection knobs for the remote-memory clients. All zero keeps
	// the seed's fail-stop behavior; see remotemem.Client for semantics.
	DeadAfter    sim.Duration
	FetchTimeout sim.Duration
	FetchRetries int
	RetryBackoff sim.Duration
	RecoverCPU   sim.Duration
	// DiskFallback chains a local swap disk behind the remote-memory pager,
	// so store-outs that no live memory node can absorb degrade to disk
	// instead of failing the run. Requires the remote backend and the
	// SimpleSwap policy (a disk cannot apply one-way remote updates).
	DiskFallback bool

	// Trace, when non-nil, is threaded through every layer of the run:
	// events from the network, tables, stores, clients, and disks; per-node
	// gauges sampled by a dedicated tracer process each MonitorInterval; and
	// pass spans from the application nodes. Nil (the default) disables all
	// tracing at zero cost.
	Trace *trace.Recorder
}

// Defaults returns the paper's §5.1 configuration (minus workload scale):
// 8 application nodes, 16 memory-available nodes, minsup 0.1%, 800,000 hash
// lines, remote backend, 3 s monitor interval.
func Defaults() Config {
	return Config{
		AppNodes:        8,
		MemNodes:        16,
		MinSupport:      0.001,
		TotalLines:      800_000,
		LimitBytes:      0,
		Policy:          memtable.SimpleSwap,
		Backend:         BackendRemote,
		Net:             simnet.PaperATM(),
		Costs:           hpa.DefaultCPUCosts(),
		RemoteCosts:     remotemem.DefaultCosts(),
		DiskProfile:     disk.Barracuda7200(),
		MonitorInterval: 3 * sim.Second,
		StoreCapacity:   40 << 20, // spare memory on an idle 64 MB node
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if c.AppNodes < 1 {
		return errors.New("core: need at least one application node")
	}
	if c.MemNodes < 0 {
		return errors.New("core: negative memory node count")
	}
	if c.LimitBytes < 0 {
		return errors.New("core: negative memory limit")
	}
	if c.LimitBytes > 0 {
		switch c.Backend {
		case BackendRemote:
			if c.MemNodes < 1 {
				return errors.New("core: remote backend needs memory-available nodes")
			}
		case BackendDisk:
			if c.Policy == memtable.RemoteUpdate {
				return errors.New("core: remote-update policy requires the remote backend")
			}
		default:
			return errors.New("core: memory limit set but no swap backend")
		}
	}
	if c.MonitorInterval <= 0 && c.MemNodes > 0 {
		return errors.New("core: monitor interval must be positive")
	}
	for _, w := range c.Withdrawals {
		if w.Node < 0 || w.Node >= c.MemNodes {
			return fmt.Errorf("core: withdrawal of unknown memory node %d", w.Node)
		}
		if w.At < 0 {
			return errors.New("core: negative withdrawal time")
		}
	}
	for _, cr := range c.Crashes {
		if cr.Node < 0 || cr.Node >= c.MemNodes {
			return fmt.Errorf("core: crash of unknown memory node %d", cr.Node)
		}
		if cr.At < 0 {
			return errors.New("core: negative crash time")
		}
	}
	if c.DiskFallback {
		if c.Backend != BackendRemote || c.LimitBytes <= 0 {
			return errors.New("core: disk fallback requires the remote backend with a memory limit")
		}
		if c.Policy == memtable.RemoteUpdate {
			return errors.New("core: disk fallback requires the simple-swap policy")
		}
	}
	if c.DeadAfter < 0 || c.FetchTimeout < 0 || c.FetchRetries < 0 || c.RetryBackoff < 0 || c.RecoverCPU < 0 {
		return errors.New("core: negative fault-tolerance knob")
	}
	return c.Net.Validate()
}

// RunInfo augments the mining result with environment-level observations.
type RunInfo struct {
	Result *hpa.Result
	// Events is the number of simulation events dispatched.
	Events uint64
	// Store operation totals across memory-available nodes.
	StoreStores, StoreFetches, StoreUpdates, StoreMigrated, StoreForwarded uint64
	// Swap-disk totals (disk backend).
	DiskReads, DiskWrites uint64
	// AvgDiskReadLatency is the mean observed swap-disk read latency.
	AvgDiskReadLatency sim.Duration
	// MonitorReports is the total availability broadcast rounds.
	MonitorReports uint64
	// Resilience sums the fault-tolerance counters across clients, fallback
	// pagers, and the network fault layer. All-zero on an undisturbed run.
	Resilience stats.Resilience
}

// Run executes one configuration over the given per-node transaction
// partitions.
func Run(cfg Config, parts [][]itemset.Itemset) (*RunInfo, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(parts) != cfg.AppNodes {
		return nil, fmt.Errorf("core: %d partitions for %d nodes", len(parts), cfg.AppNodes)
	}
	layout := transport.Layout{AppNodes: cfg.AppNodes, MemNodes: cfg.MemNodes}
	k := sim.NewKernel()
	nw := simnet.New(k, cfg.Net, layout.Total())
	if cfg.Trace != nil {
		nw.SetRecorder(cfg.Trace)
		if cfg.Trace.Wants(trace.KSpawn) {
			rec := cfg.Trace
			k.OnSpawn = func(name string, at sim.Time) {
				rec.Emit(trace.Event{At: at, Node: -1, Kind: trace.KSpawn,
					Name: name, Line: -1, Peer: -1})
			}
		}
	}
	plan := cfg.Faults
	if len(cfg.Crashes) > 0 {
		plan.Crashes = append([]simnet.Crash(nil), plan.Crashes...)
		for _, cr := range cfg.Crashes {
			plan.Crashes = append(plan.Crashes,
				simnet.Crash{Node: layout.MemIDs()[cr.Node], At: sim.Time(cr.At)})
		}
	}
	if err := nw.InstallFaults(plan); err != nil {
		return nil, err
	}
	// One uniprocessor per node: every process on a node contends for it.
	cpus := make([]*sim.Resource, layout.Total())
	for i := range cpus {
		cpus[i] = sim.NewResource(k, fmt.Sprintf("cpu-%d", i), 1)
	}

	// The transport veneer: one endpoint per node over the simulated fabric,
	// one barrier/gather coordinator per application node.
	sims := make([]*transport.SimEndpoint, layout.Total())
	eps := make([]transport.Endpoint, layout.Total())
	for i := range eps {
		sims[i] = transport.NewSimEndpoint(nw, i)
		eps[i] = sims[i]
	}
	coords := make([]*transport.Coordinator, cfg.AppNodes)
	for i := range coords {
		coords[i] = transport.NewCoordinator(eps[i], cfg.AppNodes, transport.PortCtrl)
	}
	spawn := transport.NewSimSpawner(k, cpus)

	env := hpa.Env{
		Spawn:  spawn,
		Layout: layout,
		Links:  eps,
		Coords: coords,
		Txns:   parts,
		Stats:  nw,
		Rec:    cfg.Trace,
	}

	var stores []*remotemem.Store
	var monitors []*remotemem.Monitor
	var clients []*remotemem.Client
	var disks []*disk.Disk
	var fallbacks []*memtable.FallbackPager

	for _, id := range layout.MemIDs() {
		st := remotemem.NewStore(sims[id], cfg.StoreCapacity, cfg.RemoteCosts)
		st.Rec = cfg.Trace
		stores = append(stores, st)
		k.Go(fmt.Sprintf("store-%d", id), func(p *sim.Proc) { st.Run(p) }).BindCPU(cpus[id])
		mon := remotemem.NewMonitor(sims[id], layout, st, cfg.MonitorInterval)
		mon.Rec = cfg.Trace
		monitors = append(monitors, mon)
		k.Go(fmt.Sprintf("monitor-%d", id), func(p *sim.Proc) { mon.Run(p) }).BindCPU(cpus[id])
		cfg.Trace.RegisterProbe(id, "store_used_bytes", func() float64 {
			return float64(st.UsedBytes())
		})
		cfg.Trace.RegisterProbe(id, "held_lines", func() float64 {
			return float64(st.HeldLines())
		})
	}

	if cfg.LimitBytes > 0 {
		env.Pagers = make([]memtable.Pager, cfg.AppNodes)
		switch cfg.Backend {
		case BackendRemote:
			clients = make([]*remotemem.Client, cfg.AppNodes)
			env.Clients = clients
			for i := 0; i < cfg.AppNodes; i++ {
				cl := remotemem.NewClient(sims[i], layout)
				cl.DeadAfter = cfg.DeadAfter
				cl.FetchTimeout = cfg.FetchTimeout
				cl.FetchRetries = cfg.FetchRetries
				cl.RetryBackoff = cfg.RetryBackoff
				cl.RecoverCPU = cfg.RecoverCPU
				cl.Rec = cfg.Trace
				for _, st := range stores {
					cl.Seed(st.Node(), st.FreeBytes())
				}
				k.Go(fmt.Sprintf("monclient-%d", i), func(p *sim.Proc) { cl.RunMonitor(p) }).BindCPU(cpus[i])
				clients[i] = cl
				env.Pagers[i] = cl
				if cfg.DiskFallback {
					d := disk.New(k, cfg.DiskProfile, int64(2000+i))
					d.Rec, d.Node = cfg.Trace, i
					disks = append(disks, d)
					fb := &memtable.FallbackPager{
						Primary:   cl,
						Secondary: disk.NewSwapPager(k, d, disk.PagerConfig{}),
					}
					fallbacks = append(fallbacks, fb)
					env.Pagers[i] = fb
				}
			}
		case BackendDisk:
			for i := 0; i < cfg.AppNodes; i++ {
				d := disk.New(k, cfg.DiskProfile, int64(1000+i))
				d.Rec, d.Node = cfg.Trace, i
				disks = append(disks, d)
				env.Pagers[i] = disk.NewSwapPager(k, d, disk.PagerConfig{})
			}
		}
	}

	for _, w := range cfg.Withdrawals {
		st := stores[w.Node]
		k.At(sim.Time(w.At), func() { st.SetExternalLoad(1 << 50) })
	}

	params := hpa.Params{
		MinSupport: cfg.MinSupport,
		TotalLines: cfg.TotalLines,
		LimitBytes: cfg.LimitBytes,
		Policy:     cfg.Policy,
		Eviction:   cfg.Eviction,
		Hash:       cfg.Hash,
		MaxPasses:  cfg.MaxPasses,
		Costs:      cfg.Costs,
	}
	// The tracer process samples every registered gauge probe at the monitor
	// cadence, stamping each point with virtual time. It is an observer: it
	// charges no CPU and does not contend with the modeled processes.
	var tracerStop bool
	if cfg.Trace != nil {
		for node := 0; node < layout.Total(); node++ {
			cfg.Trace.RegisterProbe(node, "nic_queue", func() float64 {
				return float64(nw.TxQueueLen(node))
			})
		}
		interval := cfg.MonitorInterval
		if interval <= 0 {
			interval = sim.Second
		}
		rec := cfg.Trace
		k.Go("tracer", func(p *sim.Proc) {
			rec.SampleProbes(p.Now()) // t=0 baseline
			for !tracerStop {
				p.Sleep(interval)
				rec.SampleProbes(p.Now())
			}
		})
	}

	pending, err := hpa.Start(env, params)
	if err != nil {
		return nil, err
	}
	pending.OnAllDone = func() {
		for _, m := range monitors {
			m.Stop()
		}
		for _, cl := range clients {
			cl.Stop()
		}
		tracerStop = true
	}
	k.Run()
	// Unwind processes still parked on channels/resources; their goroutines
	// would otherwise pin this run's memory for the host's lifetime.
	k.Shutdown()

	res, err := pending.Result()
	if err != nil {
		return nil, err
	}
	info := &RunInfo{Result: res, Events: k.Events()}
	for _, st := range stores {
		s, f, u, m, fw := st.Stats()
		info.StoreStores += s
		info.StoreFetches += f
		info.StoreUpdates += u
		info.StoreMigrated += m
		info.StoreForwarded += fw
	}
	for _, mon := range monitors {
		info.MonitorReports += mon.Reports()
	}
	var latSum sim.Duration
	for _, d := range disks {
		r, w, _, _ := d.Stats()
		info.DiskReads += r
		info.DiskWrites += w
		latSum += d.AvgReadLatency()
	}
	if len(disks) > 0 {
		info.AvgDiskReadLatency = latSum / sim.Duration(len(disks))
	}
	for _, cl := range clients {
		info.Resilience.Add(cl.Resilience())
	}
	for _, fb := range fallbacks {
		info.Resilience.FallbackStores += fb.FallbackStores()
	}
	info.Resilience.DroppedMsgs += nw.Dropped()
	return info, nil
}

// RunWorkload generates a Quest workload, partitions it round-robin, and
// runs the configuration over it.
func RunWorkload(cfg Config, wp quest.Params) (*RunInfo, error) {
	if err := wp.Validate(); err != nil {
		return nil, err
	}
	txns := quest.Generate(wp)
	return Run(cfg, quest.Partition(txns, cfg.AppNodes))
}
