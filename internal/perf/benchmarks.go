package perf

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro"
	"repro/internal/apriori"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/itemset"
	"repro/internal/memtable"
	"repro/internal/quest"
	"repro/internal/remotemem"
	"repro/internal/rmtp"
	"repro/internal/sim"
	"repro/internal/transport"
)

// BenchConfig selects the workload the paper-anchored benchmarks run:
// Scale multiplies the paper's 1,000,000-transaction workload (the
// repository default 0.01 is 1/100 of it), Seed drives generation.
type BenchConfig struct {
	Scale float64
	Seed  int64
}

// DefaultBenchConfig is the bench-scale configuration the root
// bench_test.go has always used.
func DefaultBenchConfig() BenchConfig { return BenchConfig{Scale: 0.01, Seed: 1} }

func (c BenchConfig) fill() BenchConfig {
	d := DefaultBenchConfig()
	if c.Scale == 0 {
		c.Scale = d.Scale
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

func (c BenchConfig) options() experiments.Options {
	return experiments.Options{Scale: c.Scale, Seed: c.Seed}
}

// State is the derived workload and calibration every cluster benchmark
// shares: deriving it costs seconds, so it is computed once per
// configuration and cached.
type State struct {
	Config BenchConfig
	Parts  [][]itemset.Itemset
	Calib  experiments.Calibration
	Base   core.Config
	// Table2Txns is the sequential-mine workload (10x the cluster bench
	// scale, matching the original bench_test.go).
	Table2Txns []itemset.Itemset
}

var (
	setupMu    sync.Mutex
	setupCfg   = DefaultBenchConfig()
	setupState *State
)

// SetConfig selects the configuration subsequent Setup calls derive. A
// change of configuration invalidates the cache; setting the current one
// keeps it. The zero value means "defaults".
func SetConfig(c BenchConfig) {
	c = c.fill()
	setupMu.Lock()
	defer setupMu.Unlock()
	if c != setupCfg {
		setupCfg = c
		setupState = nil
	}
}

// Setup returns the shared benchmark state, deriving it on first use.
// It is safe for concurrent use and under `go test -bench -count>1`: the
// cache persists across benchmark reruns and is keyed by configuration,
// so cmd/bench and the root bench_test.go wrappers never re-derive the
// workload per benchmark.
func Setup() *State {
	setupMu.Lock()
	defer setupMu.Unlock()
	if setupState == nil {
		o := setupCfg.options()
		p := quest.PaperParams(setupCfg.Scale * 10)
		p.Seed = setupCfg.Seed
		setupState = &State{
			Config:     setupCfg,
			Parts:      experiments.WorkloadParts(o),
			Calib:      experiments.Calibrate(o),
			Base:       experiments.BaseConfig(o),
			Table2Txns: quest.Generate(p),
		}
	}
	return setupState
}

// runCluster executes one cluster configuration per iteration and reports
// the virtual pass-2 time and pagefault count as benchmark metrics.
func runCluster(b *testing.B, mutate func(*State, *core.Config)) {
	st := Setup()
	b.ReportAllocs()
	b.ResetTimer()
	var info *core.RunInfo
	for i := 0; i < b.N; i++ {
		cfg := st.Base
		mutate(st, &cfg)
		var err error
		info, err = core.Run(cfg, st.Parts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(info.Result.Pass2Time.Seconds(), "virt-s")
	b.ReportMetric(float64(info.Result.MaxPagefaults), "faults")
}

// BenchTable2PassCounts regenerates Table 2's pass-count structure with a
// sequential mine.
func BenchTable2PassCounts(b *testing.B) {
	st := Setup()
	b.ReportAllocs()
	b.ResetTimer()
	var res *apriori.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = apriori.Mine(st.Table2Txns, apriori.Config{MinSupport: 0.007})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Passes[1].Candidates), "C2")
	b.ReportMetric(float64(len(res.Passes)), "passes")
}

// BenchTable3Partition regenerates Table 3's candidate partitioning.
func BenchTable3Partition(b *testing.B) {
	st := Setup()
	b.ReportAllocs()
	b.ResetTimer()
	var calib experiments.Calibration
	for i := 0; i < b.N; i++ {
		calib = experiments.Calibrate(st.Config.options())
	}
	b.ReportMetric(float64(calib.TotalC2), "C2")
	b.ReportMetric(float64(calib.UsagePerNodeBytes)/(1<<20), "MB/node")
}

// BenchFig3Bottleneck1MemNode is Fig. 3's single-memory-node bottleneck.
func BenchFig3Bottleneck1MemNode(b *testing.B) {
	runCluster(b, func(st *State, c *core.Config) {
		c.MemNodes = 1
		c.LimitBytes = st.Calib.LimitBytes("12MB")
		c.Policy = memtable.SimpleSwap
		c.Backend = core.BackendRemote
	})
}

// BenchFig3Resolved16MemNodes is Fig. 3's resolved 16-node point.
func BenchFig3Resolved16MemNodes(b *testing.B) {
	runCluster(b, func(st *State, c *core.Config) {
		c.MemNodes = 16
		c.LimitBytes = st.Calib.LimitBytes("12MB")
		c.Policy = memtable.SimpleSwap
		c.Backend = core.BackendRemote
	})
}

// BenchTable4NoLimitBase is Table 4's unlimited-memory baseline.
func BenchTable4NoLimitBase(b *testing.B) {
	runCluster(b, func(st *State, c *core.Config) {
		c.LimitBytes = 0
	})
}

// BenchTable4Fault13MB is Table 4's 13MB-limit faulting point.
func BenchTable4Fault13MB(b *testing.B) {
	runCluster(b, func(st *State, c *core.Config) {
		c.LimitBytes = st.Calib.LimitBytes("13MB")
		c.Policy = memtable.SimpleSwap
		c.Backend = core.BackendRemote
	})
}

// BenchFig4DiskSwap is Fig. 4's disk-swap curve at the 13MB limit.
func BenchFig4DiskSwap(b *testing.B) {
	runCluster(b, func(st *State, c *core.Config) {
		c.LimitBytes = st.Calib.LimitBytes("13MB")
		c.Policy = memtable.SimpleSwap
		c.Backend = core.BackendDisk
	})
}

// BenchFig4SimpleSwap is Fig. 4's remote simple-swapping curve.
func BenchFig4SimpleSwap(b *testing.B) {
	runCluster(b, func(st *State, c *core.Config) {
		c.LimitBytes = st.Calib.LimitBytes("13MB")
		c.Policy = memtable.SimpleSwap
		c.Backend = core.BackendRemote
	})
}

// BenchFig4RemoteUpdate is Fig. 4's remote-update curve.
func BenchFig4RemoteUpdate(b *testing.B) {
	runCluster(b, func(st *State, c *core.Config) {
		c.LimitBytes = st.Calib.LimitBytes("13MB")
		c.Policy = memtable.RemoteUpdate
		c.Backend = core.BackendRemote
	})
}

// BenchFig5Migration is Fig. 5's mid-run memory withdrawal.
func BenchFig5Migration(b *testing.B) {
	runCluster(b, func(st *State, c *core.Config) {
		c.LimitBytes = st.Calib.LimitBytes("13MB")
		c.Policy = memtable.RemoteUpdate
		c.Backend = core.BackendRemote
		c.MonitorInterval = sim.Second
		c.Withdrawals = []core.Withdrawal{{At: 5 * sim.Second, Node: 0}}
	})
}

// BenchPublicAPIQuickstart is the public-API macro benchmark: the
// quickstart path end to end.
func BenchPublicAPIQuickstart(b *testing.B) {
	cfg := repro.DefaultConfig()
	cfg.Workload.Transactions = 5_000
	cfg.Workload.Items = 500
	cfg.MinSupport = 0.01
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchRMTPStoreFetchLoopback measures a full swap-out + pagefault round
// trip over real loopback TCP — an acked store (StoreAck) and a
// lease-then-delete fetch, the live analogue of the paper's ≈2 ms ATM
// pagefault — and folds the client's rmtp.Metrics latency histogram
// into the reported metrics.
func BenchRMTPStoreFetchLoopback(b *testing.B) {
	s := rmtp.NewServer(0)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := rmtp.Dial(s.Addr(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	entries := make([]memtable.Entry, 6)
	for i := range entries {
		entries[i] = memtable.Entry{Key: fmt.Sprintf("key-%03d", i), Count: int32(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := int32(i % 1024)
		if err := c.StoreAck(line, entries); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Fetch(line); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	m := c.Metrics()
	b.ReportMetric(m.Latency.Mean(), "lat-mean-ns")
	b.ReportMetric(float64(m.Latency.Quantile(0.5)), "lat-p50-ns")
	b.ReportMetric(float64(m.Latency.Quantile(0.99)), "lat-p99-ns")
	b.ReportMetric(float64(m.Retries), "retries")
}

// BenchTCPPagerSwapLoopback measures the full TCP swap backend the miner
// uses under -transport=tcp: a remotemem.TCPPager store-out + fetch-in
// round trip against a two-server fleet, including the shadow-copy
// bookkeeping and the verified (lease-then-delete) fetch path — the cost of
// one real pagefault as the mining pipeline pays it when it faults a line
// straight back, not just the raw protocol round trip. Store-outs are
// windowed, so the fetch-in ships the line's store window first, holding
// just that line: this measures a one-line window
// (BenchTCPPagerEvictCollectLoopback measures full ones).
func BenchTCPPagerSwapLoopback(b *testing.B) {
	var addrs []string
	for i := 0; i < 2; i++ {
		s := rmtp.NewServer(0)
		if err := s.Listen("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		addrs = append(addrs, s.Addr())
	}
	tp, err := remotemem.NewTCPPager("bench", addrs, rmtp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer tp.Close()
	p := transport.NewRealProc()
	entries := make([]memtable.Entry, 6)
	for i := range entries {
		entries[i] = memtable.Entry{Key: fmt.Sprintf("key-%03d", i), Count: int32(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := i % 1024
		loc, err := tp.StoreOut(p, line, entries)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tp.FetchIn(p, line, loc); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := tp.Stats()
	b.ReportMetric(float64(st.VerifiedFetches), "verified-fetches")
	b.ReportMetric(float64(st.Mismatches), "mismatches")
	b.ReportMetric(float64(st.Failovers), "failovers")
}

// BenchTCPPagerEvictCollectLoopback measures the swap shape a mining pass
// actually has on the TCP backend: many evictions, then Collect bringing
// every swapped-out line home. One op is 1,024 TCPPager store-outs (acked
// in pipelined windows of 64) followed by one FetchAll of every line
// (pipelined lease-then-delete windows) against a two-server loopback
// fleet; ns/line and allocs/line divide the op by its lines.
func BenchTCPPagerEvictCollectLoopback(b *testing.B) {
	const lines = 1024
	var addrs []string
	for i := 0; i < 2; i++ {
		s := rmtp.NewServer(0)
		if err := s.Listen("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		addrs = append(addrs, s.Addr())
	}
	tp, err := remotemem.NewTCPPager("bench", addrs, rmtp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer tp.Close()
	p := transport.NewRealProc()
	entries := make([]memtable.Entry, 6)
	for i := range entries {
		entries[i] = memtable.Entry{Key: fmt.Sprintf("key-%03d", i), Count: int32(i)}
	}
	swapped := make([]memtable.Swapped, lines)
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		for line := range swapped {
			loc, err := tp.StoreOut(p, line, entries)
			if err != nil {
				b.Fatal(err)
			}
			swapped[line] = memtable.Swapped{Line: line, Loc: loc}
		}
		n := 0
		if err := tp.FetchAll(p, swapped, func(int, []memtable.Entry) { n++ }); err != nil {
			b.Fatal(err)
		}
		if n != lines {
			b.Fatalf("FetchAll returned %d lines, want %d", n, lines)
		}
	}
	runtime.ReadMemStats(&after)
	b.StopTimer()
	perLine := float64(b.N) * lines
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perLine, "ns/line")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perLine, "allocs/line")
	st := tp.Stats()
	b.ReportMetric(float64(st.VerifiedFetches), "verified-fetches")
	b.ReportMetric(float64(st.Mismatches), "mismatches")
}

// BenchCheckpointPass measures the per-pass durability tax the supervised
// TCP fleet pays for crash recovery: one atomic checkpoint save (temp
// write, fsync, rename over the previous pass) plus the load a replacement
// process performs on respawn, at a pass-2-sized state.
func BenchCheckpointPass(b *testing.B) {
	dir, err := os.MkdirTemp("", "ckpt-bench-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := checkpoint.NewStore(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	// Sized like a bench-scale pass 2: a few thousand frequent pairs on top
	// of the singleton survivors of pass 1.
	large := make([]itemset.Itemset, 2000)
	for i := range large {
		large[i] = itemset.New(itemset.Item(i%120), itemset.Item(i/120+120))
	}
	prev := make([]itemset.Itemset, 300)
	for i := range prev {
		prev[i] = itemset.New(itemset.Item(i))
	}
	state := &checkpoint.State{
		Node:         0,
		Pass:         2,
		Large:        large,
		PrevLarge:    prev,
		ParamsDigest: checkpoint.DigestParams(4, 0.02, 800_000),
		PartDigest:   0xfeedface,
		Counters:     checkpoint.Counters{Pass2Candidates: len(large)},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Save(state); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Load(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if fi, err := os.Stat(st.Path()); err == nil {
		b.ReportMetric(float64(fi.Size()), "ckpt-bytes")
	}
	b.ReportMetric(float64(len(large)+len(prev)), "itemsets")
}

// Benchmark is one registered benchmark: an exported body callable both
// from the root bench_test.go wrappers and from cmd/bench.
type Benchmark struct {
	Name string
	// Paper anchors the benchmark to the paper artifact it regenerates.
	Paper string
	Fn    func(*testing.B)
}

// Benchmarks lists every registered benchmark in presentation order: the
// six paper-anchored benches, the public-API macro bench, and the
// real-TCP loopback bench.
func Benchmarks() []Benchmark {
	return []Benchmark{
		{"Table2PassCounts", "Table 2", BenchTable2PassCounts},
		{"Table3Partition", "Table 3", BenchTable3Partition},
		{"Fig3Bottleneck1MemNode", "Fig. 3", BenchFig3Bottleneck1MemNode},
		{"Fig3Resolved16MemNodes", "Fig. 3", BenchFig3Resolved16MemNodes},
		{"Table4NoLimitBase", "Table 4", BenchTable4NoLimitBase},
		{"Table4Fault13MB", "Table 4", BenchTable4Fault13MB},
		{"Fig4DiskSwap", "Fig. 4", BenchFig4DiskSwap},
		{"Fig4SimpleSwap", "Fig. 4", BenchFig4SimpleSwap},
		{"Fig4RemoteUpdate", "Fig. 4", BenchFig4RemoteUpdate},
		{"Fig5Migration", "Fig. 5", BenchFig5Migration},
		{"PublicAPIQuickstart", "public API", BenchPublicAPIQuickstart},
		{"RMTPStoreFetchLoopback", "§4.2 pagefault cost", BenchRMTPStoreFetchLoopback},
		{"TCPPagerSwapLoopback", "§4.2 pagefault cost", BenchTCPPagerSwapLoopback},
		{"TCPPagerEvictCollectLoopback", "§4.3 swap-out and collect", BenchTCPPagerEvictCollectLoopback},
		{"CheckpointPass", "fault tolerance", BenchCheckpointPass},
		{"Pass2CountFlat", "§3 pass-2 kernel", BenchPass2CountFlat},
		{"Pass2CountHTree", "§3 pass-2 kernel", BenchPass2CountHTree},
		{"Pass2CountFlatUniform", "§3 pass-2 kernel", BenchPass2CountFlatUniform},
		{"Pass2CountHTreeUniform", "§3 pass-2 kernel", BenchPass2CountHTreeUniform},
		{"RMTPUpdateBatchLoopback", "§4.4 one-way updates", BenchRMTPUpdateBatchLoopback},
		{"MemtableBuildProbe", "§5.1 hash table", BenchMemtableBuildProbe},
		{"CandidateGen", "§2.2 candidate generation", BenchCandidateGen},
		{"SimSleep", "DES kernel (Figs. 3–5)", BenchSimSleep},
		{"SimChanPingPong", "DES kernel (Figs. 3–5)", BenchSimChanPingPong},
	}
}
