package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/hpa"
	"repro/internal/itemset"
	"repro/internal/memtable"
	"repro/internal/remotemem"
	"repro/internal/rmtp"
	"repro/internal/transport"
)

// TCPConfig describes one node's share of a multi-process mining run over a
// real TCP mesh, swapping against a fleet of rmserverd processes. All
// processes must be launched with identical mining parameters: each
// regenerates the full workload, so validation (MinCount, candidate
// generation) is byte-for-byte the same everywhere while every node only
// scans its own partition.
type TCPConfig struct {
	// AppNodes is the mesh size (one miner process, or goroutine, per node).
	AppNodes int
	// Node is this process's node id. Node 0 binds the rendezvous listener;
	// the others join via Coord. -1 hosts ALL nodes in this process (an
	// in-process mesh over loopback — the fidelity experiment and tests).
	Node int
	// Listen is node 0's rendezvous listen address (default "127.0.0.1:0");
	// an in-process mesh (Node -1) always listens on loopback.
	Listen string
	// Coord is the rendezvous address nodes > 0 join through.
	Coord string
	// Servers are the rmserverd fleet addresses (required when LimitBytes>0).
	Servers []string

	MinSupport float64
	TotalLines int
	LimitBytes int64
	Policy     memtable.Policy
	Eviction   memtable.Eviction
	Hash       hpa.HashKind
	MaxPasses  int

	// ClientOptions set the rmtp clients' retry policy (timeout, retries,
	// jittered backoff).
	ClientOptions rmtp.Options

	// OnReady, when set, is called with the mesh rendezvous address once
	// node 0's listener is bound (so a parent can spawn the other processes).
	OnReady func(meshAddr string)

	// Heartbeat arms the mesh liveness layer and peer-loss recovery: peers
	// exchange heartbeats, a peer silent for 8 periods or with a reset
	// connection is declared dead, and the survivors wait for its
	// replacement and replay the interrupted pass instead of hanging. Zero
	// leaves both off.
	Heartbeat time.Duration
	// CheckpointDir, when set, persists each local node's state after every
	// pass, and — on a respawned process (ResumeGen > 0) — restores it.
	CheckpointDir string
	// ResumeGen > 0 marks this process as a replacement for a crashed miner:
	// it rejoins the live mesh through Coord instead of the initial
	// rendezvous, restores its checkpoint, and replays to the cluster's pass.
	ResumeGen int
	// Respawn, when set, makes this process the fleet supervisor: it is
	// called once per directly observed peer death with the dead rank and the
	// recovery generation its replacement must resume at. Return ErrCleanExit
	// when the rank's process had exited cleanly (mining finished) to skip
	// the respawn; any other error aborts the run.
	Respawn func(rank, gen int) error
	// RestartLimit caps both the supervisor's respawns and each node's
	// peer-loss recoveries before the run is declared unrecoverable
	// (default 8).
	RestartLimit int
	// SpillDir, when set, arms a local-disk fallback tier: store-outs the
	// whole server fleet refuses (capacity NACKs, servers that stay dead
	// through the client's retries) divert to a spill file there instead of failing the run.
	SpillDir string
}

// ErrCleanExit is returned by a Respawn callback to report that the lost
// rank's process exited cleanly — mining finished, nothing to respawn.
var ErrCleanExit = errors.New("core: peer exited cleanly")

// supervisor reacts to directly observed peer deaths on the supervising
// process: it respawns the dead rank's miner (bounded by the restart limit)
// and aborts the whole run when respawning fails or runs out.
type supervisor struct {
	mu       sync.Mutex
	respawn  func(rank, gen int) error
	limit    int
	restarts int
	stopped  bool
	failed   bool
	abort    func() // closes the local meshes, failing every collective
}

func (s *supervisor) peerLost(rank int, cause error) {
	s.mu.Lock()
	if s.stopped || s.failed {
		s.mu.Unlock()
		return
	}
	s.restarts++
	gen := s.restarts
	if s.restarts > s.limit {
		s.failed = true
		s.mu.Unlock()
		s.abort()
		return
	}
	s.mu.Unlock()
	err := s.respawn(rank, gen)
	if errors.Is(err, ErrCleanExit) {
		s.mu.Lock()
		s.restarts-- // not a restart; don't burn the limit on a clean exit
		s.mu.Unlock()
		return
	}
	if err != nil {
		s.mu.Lock()
		s.failed = true
		s.mu.Unlock()
		s.abort()
	}
}

// stop ends supervision (mining finished: subsequent peer exits are normal).
func (s *supervisor) stop() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopped = true
	return s.restarts
}

// TCPRunInfo is the outcome of one process's share of a TCP run.
type TCPRunInfo struct {
	// Result is the mining result. Shared fields (pass table, large
	// itemsets, supports) are complete only in the process hosting node 0;
	// PerNode rows are filled for locally-hosted nodes.
	Result *hpa.Result
	// Wall is the real elapsed time of the mining run.
	Wall time.Duration
	// Mesh carries the mesh's modeled traffic counters for this process.
	MeshMessages, MeshBytes uint64
	// Pagers exposes the per-local-node TCP pager stats (nil entries for
	// nodes without a pager).
	Pagers []*remotemem.TCPPagerStats
	// Spills exposes the per-local-node disk fallback tier stats (nil when
	// SpillDir was unset or the node never spilled).
	Spills []*memtable.FilePagerStats
	// Restarts is how many miner respawns this process's supervisor
	// performed (0 on non-supervising processes and fault-free runs).
	Restarts int
}

// RunTCP executes this process's share of an HPA run over a live TCP mesh.
// parts must hold all AppNodes partitions (every process regenerates the
// full deterministic workload from shared flags).
func RunTCP(cfg TCPConfig, parts [][]itemset.Itemset) (*TCPRunInfo, error) {
	if cfg.AppNodes < 1 {
		return nil, errors.New("core: tcp run needs at least one application node")
	}
	if len(parts) != cfg.AppNodes {
		return nil, fmt.Errorf("core: %d partitions for %d nodes", len(parts), cfg.AppNodes)
	}
	if cfg.LimitBytes > 0 && len(cfg.Servers) == 0 {
		return nil, errors.New("core: memory limit set but no rmtp servers given")
	}
	if cfg.RestartLimit <= 0 {
		cfg.RestartLimit = 8
	}
	if cfg.ResumeGen > 0 && (cfg.Node < 1 || cfg.Heartbeat <= 0 || cfg.CheckpointDir == "") {
		return nil, errors.New("core: resuming needs a node > 0, liveness (Heartbeat), and a checkpoint dir")
	}

	opts := transport.MeshOptions{Heartbeat: cfg.Heartbeat}
	var superv *supervisor
	if cfg.Respawn != nil {
		if cfg.Heartbeat <= 0 {
			return nil, errors.New("core: a supervisor (Respawn) requires liveness (Heartbeat)")
		}
		superv = &supervisor{respawn: cfg.Respawn, limit: cfg.RestartLimit}
		opts.OnPeerLost = superv.peerLost
	}

	// Bootstrap the mesh: all nodes in-process, or this process's one node.
	var local []int
	meshes := make([]*transport.TCPMesh, cfg.AppNodes)
	switch {
	case cfg.Node == -1:
		ms, err := transport.LoopbackMeshes(cfg.AppNodes, opts)
		if err != nil {
			return nil, err
		}
		copy(meshes, ms)
		if cfg.OnReady != nil {
			cfg.OnReady(ms[0].Addr())
		}
		for i := 0; i < cfg.AppNodes; i++ {
			local = append(local, i)
		}
	case cfg.Node == 0:
		m, err := transport.ListenMesh(cfg.AppNodes, listenAddr(cfg), opts)
		if err != nil {
			return nil, err
		}
		if cfg.OnReady != nil {
			cfg.OnReady(m.Addr())
		}
		if err := m.Join(); err != nil {
			m.Close()
			return nil, err
		}
		meshes[0] = m
		local = []int{0}
	case cfg.ResumeGen > 0:
		if cfg.Coord == "" {
			return nil, errors.New("core: a resuming node needs the rendezvous address (-tcp-coord)")
		}
		m, err := transport.RejoinMesh(cfg.Node, cfg.AppNodes, cfg.Coord, opts)
		if err != nil {
			return nil, err
		}
		meshes[cfg.Node] = m
		local = []int{cfg.Node}
	default:
		if cfg.Coord == "" {
			return nil, errors.New("core: tcp node > 0 needs the rendezvous address (-tcp-coord)")
		}
		m, err := transport.JoinMesh(cfg.Node, cfg.AppNodes, cfg.Coord, opts)
		if err != nil {
			return nil, err
		}
		meshes[cfg.Node] = m
		local = []int{cfg.Node}
	}
	if superv != nil {
		superv.abort = func() {
			for _, m := range meshes {
				if m != nil {
					m.Close()
				}
			}
		}
	}
	defer func() {
		for _, m := range meshes {
			if m != nil {
				m.Close()
			}
		}
	}()

	layout := transport.Layout{AppNodes: cfg.AppNodes, MemNodes: 0}
	eps := make([]transport.Endpoint, cfg.AppNodes)
	coords := make([]*transport.Coordinator, cfg.AppNodes)
	for _, id := range local {
		eps[id] = meshes[id]
		coords[id] = transport.NewCoordinator(meshes[id], cfg.AppNodes, transport.PortCtrl)
	}

	pagers := make([]memtable.Pager, cfg.AppNodes)
	tcpPagers := make([]*remotemem.TCPPager, cfg.AppNodes)
	spillPagers := make([]*memtable.FilePager, cfg.AppNodes)
	if cfg.LimitBytes > 0 {
		for _, id := range local {
			tp, err := remotemem.NewTCPPager(fmt.Sprintf("miner-%d", id), cfg.Servers, cfg.ClientOptions)
			if err != nil {
				return nil, err
			}
			defer tp.Close()
			tcpPagers[id] = tp
			pagers[id] = tp
			if cfg.SpillDir != "" {
				if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
					return nil, fmt.Errorf("core: spill dir: %w", err)
				}
				fp, err := memtable.NewFilePager(filepath.Join(cfg.SpillDir, fmt.Sprintf("spill-node%d.dat", id)))
				if err != nil {
					return nil, err
				}
				defer fp.Close()
				spillPagers[id] = fp
				tp.SpillTo(fp)
			}
		}
	}

	// Checkpoint stores: written after every pass; on a respawned process the
	// single local node's state is restored before mining starts.
	var ckpts []*checkpoint.Store
	var resume *checkpoint.State
	if cfg.CheckpointDir != "" {
		ckpts = make([]*checkpoint.Store, cfg.AppNodes)
		for _, id := range local {
			st, err := checkpoint.NewStore(cfg.CheckpointDir, id)
			if err != nil {
				return nil, err
			}
			ckpts[id] = st
		}
		if cfg.ResumeGen > 0 {
			st, err := ckpts[local[0]].Load()
			if err != nil {
				return nil, err
			}
			resume = st // nil = no checkpoint survived; replay from pass 1
		}
	}

	spawn := &transport.RealSpawner{}
	env := hpa.Env{
		Spawn:        spawn,
		Layout:       layout,
		Links:        eps,
		Coords:       coords,
		Local:        local,
		Pagers:       pagers,
		Txns:         parts,
		Ckpts:        ckpts,
		Resume:       resume,
		ResumeGen:    cfg.ResumeGen,
		RestartLimit: cfg.RestartLimit,
	}
	params := hpa.Params{
		MinSupport: cfg.MinSupport,
		TotalLines: cfg.TotalLines,
		LimitBytes: cfg.LimitBytes,
		Policy:     cfg.Policy,
		Eviction:   cfg.Eviction,
		Hash:       cfg.Hash,
		MaxPasses:  cfg.MaxPasses,
		Costs:      hpa.DefaultCPUCosts(),
	}

	start := time.Now()
	pending, err := hpa.Start(env, params)
	if err != nil {
		return nil, err
	}
	spawn.WaitAll()
	restarts := 0
	if superv != nil {
		// Mining finished (or failed) on every local node; peers exiting
		// from here on are normal completions, not crashes.
		restarts = superv.stop()
	}

	res, err := pending.Result()
	if err != nil {
		return nil, err
	}
	info := &TCPRunInfo{
		Result:   res,
		Wall:     time.Since(start),
		Pagers:   make([]*remotemem.TCPPagerStats, cfg.AppNodes),
		Spills:   make([]*memtable.FilePagerStats, cfg.AppNodes),
		Restarts: restarts,
	}
	for _, id := range local {
		info.MeshMessages += meshes[id].Messages()
		info.MeshBytes += meshes[id].Bytes()
		if tcpPagers[id] != nil {
			st := tcpPagers[id].Stats()
			info.Pagers[id] = &st
			// Fold the degraded-mode activity into the node's resilience row
			// so sim and TCP runs report faults through the same lens.
			r := &res.PerNode[id].Resilience
			r.Failovers += st.Failovers
			r.LinesLost += st.Recoveries
			r.FallbackStores += st.FallbackStores
		}
		if spillPagers[id] != nil {
			st := spillPagers[id].Stats()
			info.Spills[id] = &st
		}
		// A run that completed successfully no longer needs its checkpoint;
		// leaving it would poison an unrelated later run's resume.
		if ckpts != nil && ckpts[id] != nil {
			ckpts[id].Remove()
		}
	}
	// The mesh only observes its own transmit side; expose the sum for the
	// hosted nodes in the familiar Result fields when unset.
	if res.Messages == 0 {
		res.Messages = info.MeshMessages
		res.Bytes = info.MeshBytes
	}
	return info, nil
}

func listenAddr(cfg TCPConfig) string {
	if cfg.Listen != "" {
		return cfg.Listen
	}
	return "127.0.0.1:0"
}
