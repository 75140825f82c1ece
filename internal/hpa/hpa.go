package hpa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"sync"

	"repro/internal/apriori"
	"repro/internal/checkpoint"
	"repro/internal/itemset"
	"repro/internal/memtable"
	"repro/internal/remotemem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
)

// CPUCosts are the per-operation compute charges, calibrated to the
// 200 MHz Pentium Pro nodes so that the no-limit pass 2 of the paper's
// workload takes ≈247 s (Table 4: Exec − Diff).
type CPUCosts struct {
	Pass1Item sim.Duration // per item occurrence counted in pass 1
	CandGen   sim.Duration // per candidate generated (join + hash + route)
	SubsetGen sim.Duration // per k-subset generated, hashed, batched
	Probe     sim.Duration // per hash-table probe at the receiver
	Insert    sim.Duration // per hash-table insert during build
	TxnRead   sim.Duration // per transaction read from the local data disk
}

// DefaultCPUCosts returns the calibrated charges.
func DefaultCPUCosts() CPUCosts {
	return CPUCosts{
		Pass1Item: 2 * sim.Microsecond,
		CandGen:   10 * sim.Microsecond,
		SubsetGen: 8 * sim.Microsecond,
		Probe:     18 * sim.Microsecond,
		Insert:    12 * sim.Microsecond,
		TxnRead:   20 * sim.Microsecond,
	}
}

// HashKind selects the candidate-partitioning hash function.
type HashKind int

const (
	// HashFNV partitions with the 64-bit FNV-1a hash (default): modern,
	// well-mixing, near-perfect balance.
	HashFNV HashKind = iota
	// HashAdditive partitions with a 1990s-style polynomial hash
	// (Σ itemᵢ·8191ⁱ): cheap, but its structure interacts with skewed item
	// distributions, producing the uneven per-node candidate counts the
	// paper's Table 3 exhibits.
	HashAdditive
)

func (h HashKind) String() string {
	if h == HashAdditive {
		return "additive-8191"
	}
	return "fnv-1a"
}

// HashItemset applies the selected hash to a canonical itemset.
func (h HashKind) HashItemset(s itemset.Itemset) uint64 {
	var buf [32]byte // up to 8 items on the stack
	return h.HashKey(itemset.AppendKey(buf[:0], s))
}

// HashKey applies the selected hash to the itemset whose key
// (itemset.AppendKey's bytes) is key, without decoding it.
func (h HashKind) HashKey(key []byte) uint64 {
	if h == HashAdditive {
		var v uint64
		for i := 0; i < len(key); i += 4 {
			v = v*8191 + uint64(binary.LittleEndian.Uint32(key[i:]))
		}
		return v
	}
	return itemset.HashKey(key)
}

// HashPairOf applies the selected hash to the 2-itemset {a,b}, a < b,
// without allocating.
func (h HashKind) HashPairOf(a, b itemset.Item) uint64 {
	var key [8]byte
	binary.LittleEndian.PutUint32(key[:], uint32(a))
	binary.LittleEndian.PutUint32(key[4:], uint32(b))
	return h.HashKey(key[:])
}

// Params configures one HPA run.
type Params struct {
	MinSupport float64
	TotalLines int // hash lines across all nodes (paper: 800,000)
	LimitBytes int64
	Policy     memtable.Policy
	Eviction   memtable.Eviction // victim selection (default LRU)
	Hash       HashKind          // candidate-partitioning hash (default FNV)
	MaxPasses  int               // 0 = to completion
	Costs      CPUCosts
}

// Validate reports the first invalid field.
func (pr Params) Validate() error {
	switch {
	case pr.MinSupport <= 0 || pr.MinSupport > 1:
		return errors.New("hpa: MinSupport must be in (0,1]")
	case pr.TotalLines < 1:
		return errors.New("hpa: need at least one hash line")
	case pr.LimitBytes < 0:
		return errors.New("hpa: negative memory limit")
	case pr.MaxPasses < 0:
		return errors.New("hpa: negative MaxPasses")
	}
	return nil
}

// Env is the prepared cluster environment an HPA run executes in. It is
// backend-agnostic: the same mining code drives the simulated fabric and a
// real TCP mesh, differing only in how the environment is wired.
type Env struct {
	// Spawn starts node processes (kernel processes bound to node CPUs on
	// the simulated backend, goroutines on TCP).
	Spawn  transport.Spawner
	Layout transport.Layout
	// Links[id] is application node id's fabric endpoint. Indices outside
	// Local may be nil in a multi-process run.
	Links []transport.Endpoint
	// Coords[id] is node id's barrier/gather coordinator over Links[id].
	Coords []*transport.Coordinator
	// Local lists the application node ids hosted by this process; nil hosts
	// all of them (the simulated backend, or a single-process TCP run).
	Local []int
	// Pagers holds one pager per application node (nil entries allowed when
	// LimitBytes is zero; only Local indices are consulted).
	Pagers []memtable.Pager
	// Clients, when the remote backend is used, lets the run attach tables
	// for migration and collect client stats; entries may be nil.
	Clients []*remotemem.Client
	// Txns are the per-application-node transaction partitions. Every
	// process holds the full set (the workload is regenerated from shared
	// parameters), so MinCount and validation are identical everywhere.
	Txns [][]itemset.Itemset
	// Stats, when non-nil, supplies fabric-wide traffic totals for the
	// Result (the simulated network; nil where no global observer exists).
	Stats transport.FabricStats
	// Rec, when non-nil, receives per-pass KSpan events and has per-node
	// table gauges (resident_bytes, out_lines) registered against it each
	// time a pass builds a fresh candidate table.
	Rec *trace.Recorder

	// Ckpts[id], when non-nil, persists node id's state after every pass so
	// a supervisor can respawn the process and replay it (TCP fleet only).
	Ckpts []*checkpoint.Store
	// Resume is the restored checkpoint of this process's single local node
	// (nil = no checkpoint survived; replay from pass 1).
	Resume *checkpoint.State
	// ResumeGen > 0 marks this process as a respawned miner rejoining a
	// live cluster at the given recovery generation.
	ResumeGen int
	// RestartLimit caps each node's peer-loss recoveries. A node recovers
	// when a pass fails with a *transport.PeerLostError on an endpoint that
	// implements transport.Reviver, which only a TCP mesh with liveness on
	// reports: it waits for the rank to rejoin, bumps its generation, and
	// replays the interrupted pass after a cluster-wide resync.
	RestartLimit int
}

// rejoinWait is how long a node waits for a lost rank's replacement: it
// covers the supervisor's respawn plus the replacement's checkpoint replay.
const rejoinWait = 30 * time.Second

// LocalNodes returns the application node ids this process hosts.
func (e Env) LocalNodes() []int {
	if e.Local != nil {
		return e.Local
	}
	return e.Layout.AppIDs()
}

// NodeStats captures one application node's counters for a run.
type NodeStats struct {
	Node              int
	CandidatesPass2   int // candidate 2-itemsets assigned to this node (Table 3)
	Pagefaults        uint64
	Evictions         uint64
	Updates           uint64
	PeakResidentBytes int64
	Migrations        uint64
	RelocatedLines    uint64
	// Resilience carries the node's pager fault-tolerance counters
	// (retries, failovers, recovered lines); all-zero on a fault-free run.
	Resilience stats.Resilience
}

// Result is the outcome of a parallel mining run.
type Result struct {
	Passes       []apriori.PassStats
	Large        [][]itemset.Itemset
	Support      map[string]int
	MinCount     int
	Transactions int

	// PassTimes[k] is the virtual time pass k took (index 0 unused).
	PassTimes []sim.Duration
	// Pass2Time is PassTimes[2] when it exists (the paper's headline metric).
	Pass2Time sim.Duration
	TotalTime sim.Duration

	PerNode []NodeStats

	// MaxPagefaults is the busiest node's pagefault count in pass 2
	// (Table 4's "Max").
	MaxPagefaults uint64
	// TotalUpdates across nodes in pass 2.
	TotalUpdates uint64

	Messages uint64
	Bytes    uint64
}

// ToAprioriResult views the parallel result as a sequential one for
// comparison with apriori.Mine via apriori.SameLarge.
func (r *Result) ToAprioriResult() *apriori.Result {
	return &apriori.Result{
		Passes:       r.Passes,
		Large:        r.Large,
		Support:      r.Support,
		MinCount:     r.MinCount,
		Transactions: r.Transactions,
	}
}

// Pending tracks an in-flight run started with Start. The mutex serializes
// completion and candidate-cache access: on the simulated backend processes
// are cooperative, but on the TCP backend locally-hosted nodes run as
// genuinely concurrent goroutines.
type Pending struct {
	mu       sync.Mutex
	res      *Result
	errs     []error
	finished int
	nLocal   int
	// OnAllDone runs (in simulation context) when every application node has
	// finished or failed; the environment owner uses it to stop monitors.
	OnAllDone func()

	// candCache shares the deterministic per-pass candidate generation
	// across nodes: every node performs (and is charged for) the same join,
	// so the host computes it once. Keyed by pass number.
	candPass  int
	candCache *passCandidates
	candHash  HashKind
}

// passCandidates is the precomputed candidate set of one pass.
type passCandidates struct {
	keys  itemset.Packed // AprioriGen's output, in lexicographic order
	lines []int32        // candidate i's global hash line
}

// candidatesFor returns (computing on first request per pass) the candidate
// set derived from the previous pass's large itemsets.
func (pd *Pending) candidatesFor(k int, prevLarge []itemset.Itemset, totalLines int) *passCandidates {
	pd.mu.Lock()
	defer pd.mu.Unlock()
	// candHash is set once at Start from Params.Hash.
	if pd.candPass == k && pd.candCache != nil {
		return pd.candCache
	}
	keys := itemset.AprioriGen(prevLarge)
	pc := &passCandidates{keys: keys, lines: make([]int32, keys.Len())}
	for i := range pc.lines {
		pc.lines[i] = int32(pd.candHash.HashKey(keys.Key(i)) % uint64(totalLines))
	}
	pd.candPass = k
	pd.candCache = pc
	return pc
}

// Err returns the first node failure, if any.
func (pd *Pending) Err() error {
	pd.mu.Lock()
	defer pd.mu.Unlock()
	if len(pd.errs) > 0 {
		return pd.errs[0]
	}
	return nil
}

// Result returns the run outcome after the kernel has drained.
func (pd *Pending) Result() (*Result, error) {
	if err := pd.Err(); err != nil {
		return nil, err
	}
	pd.mu.Lock()
	defer pd.mu.Unlock()
	if pd.finished != pd.nLocal {
		return nil, fmt.Errorf("hpa: only %d of %d nodes finished (deadlock or starvation)",
			pd.finished, pd.nLocal)
	}
	return pd.res, nil
}

func (pd *Pending) nodeDone(err error) {
	pd.mu.Lock()
	if err != nil {
		pd.errs = append(pd.errs, err)
	}
	pd.finished++
	// Stop shared services when every local node finished, or on the first
	// failure (remaining nodes may be blocked forever on a barrier).
	fire := pd.OnAllDone != nil && (pd.finished == pd.nLocal || len(pd.errs) == 1 && err != nil)
	pd.mu.Unlock()
	if fire {
		pd.OnAllDone()
	}
}

// Start validates the environment and spawns one application process per
// locally-hosted node. The caller then drives the backend (kernel Run, or
// goroutine completion) and reads Pending.Result.
func Start(env Env, params Params) (*Pending, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := env.Layout.Validate(); err != nil {
		return nil, err
	}
	n := env.Layout.AppNodes
	local := env.LocalNodes()
	if len(local) == 0 {
		return nil, errors.New("hpa: no locally hosted application nodes")
	}
	if len(env.Txns) != n {
		return nil, fmt.Errorf("hpa: %d transaction partitions for %d nodes", len(env.Txns), n)
	}
	for _, id := range local {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("hpa: local node %d outside the %d application nodes", id, n)
		}
		if id >= len(env.Links) || env.Links[id] == nil {
			return nil, fmt.Errorf("hpa: local node %d has no fabric endpoint", id)
		}
		if id >= len(env.Coords) || env.Coords[id] == nil {
			return nil, fmt.Errorf("hpa: local node %d has no coordinator", id)
		}
	}
	if params.LimitBytes > 0 {
		for _, id := range local {
			if id >= len(env.Pagers) || env.Pagers[id] == nil {
				return nil, fmt.Errorf("hpa: memory limit set but node %d has no pager", id)
			}
		}
	}
	if env.Resume != nil {
		if len(local) != 1 || env.Resume.Node != local[0] {
			return nil, fmt.Errorf("hpa: resume state is for node %d; this process hosts %v", env.Resume.Node, local)
		}
		if env.ResumeGen < 1 {
			return nil, errors.New("hpa: resume state without a recovery generation")
		}
	}
	if env.ResumeGen > 0 && len(local) != 1 {
		return nil, errors.New("hpa: a respawned process must host exactly one node")
	}
	if params.Costs == (CPUCosts{}) {
		params.Costs = DefaultCPUCosts()
	}
	total := 0
	for _, part := range env.Txns {
		total += len(part)
	}
	if total == 0 {
		return nil, errors.New("hpa: no transactions")
	}

	pd := &Pending{
		nLocal:   len(local),
		candHash: params.Hash,
		res: &Result{
			Large:        [][]itemset.Itemset{nil},
			Support:      make(map[string]int),
			MinCount:     apriori.MinCount(params.MinSupport, total),
			Transactions: total,
			PerNode:      make([]NodeStats, n),
			PassTimes:    []sim.Duration{0},
		},
	}
	for _, id := range local {
		node := &appNode{
			id:     id,
			env:    env,
			params: params,
			pd:     pd,
		}
		env.Spawn.Go(id, fmt.Sprintf("app-%d", id), node.run)
	}
	return pd, nil
}
