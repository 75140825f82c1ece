package perf

import (
	"flag"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func sampleReport(ns float64) *Report {
	return &Report{
		Schema:    SchemaVersion,
		Kind:      "bench-trajectory",
		CreatedAt: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		Commit:    "abc1234",
		GoVersion: "go1.22",
		GOOS:      "linux",
		GOARCH:    "amd64",
		NumCPU:    8,
		Scale:     0.01,
		Seed:      1,
		BenchTime: "1x",
		Benchmarks: []BenchResult{
			{
				Name:        "Fig4SimpleSwap",
				Paper:       "Fig. 4",
				Iterations:  1,
				NsPerOp:     ns,
				AllocsPerOp: 1234,
				BytesPerOp:  99,
				Metrics:     map[string]float64{"virt-s": 155.3, "faults": 54689},
				Mem: &MemProfile{
					IntervalMS:      100,
					Samples:         3,
					HeapAllocMax:    1 << 20,
					HeapInuseMax:    2 << 20,
					HeapSysMax:      3 << 20,
					TotalAllocDelta: 4 << 20,
					NumGCDelta:      2,
					Series: []MemSample{
						{OffsetMS: 100, HeapAlloc: 1 << 19, HeapInuse: 1 << 20, HeapSys: 3 << 20},
						{OffsetMS: 200, HeapAlloc: 1 << 20, HeapInuse: 2 << 20, HeapSys: 3 << 20},
					},
				},
			},
			{Name: "Table2PassCounts", Paper: "Table 2", Iterations: 2, NsPerOp: 10},
		},
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := sampleReport(1e9)
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", r, got)
	}
	if got.Stamp() != "abc1234" {
		t.Fatalf("stamp = %q", got.Stamp())
	}
	got.Commit = ""
	if got.Stamp() != "20260808T120000Z" {
		t.Fatalf("timestamp stamp = %q", got.Stamp())
	}
	if b := got.Find("Fig4SimpleSwap"); b == nil || b.AllocsPerOp != 1234 {
		t.Fatalf("Find = %+v", b)
	}
	if v, ok := got.Benchmarks[0].Metric("virt-s"); !ok || v != 155.3 {
		t.Fatalf("Metric virt-s = %v, %v", v, ok)
	}
}

func TestReadFileRejectsBadDocuments(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]func(*Report){
		"wrong-kind":    func(r *Report) { r.Kind = "something-else" },
		"future-schema": func(r *Report) { r.Schema = SchemaVersion + 1 },
		"no-schema":     func(r *Report) { r.Schema = 0 },
	}
	for name, mutate := range cases {
		r := sampleReport(1)
		mutate(r)
		path := filepath.Join(dir, name+".json")
		if err := r.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); err == nil {
			t.Fatalf("%s: ReadFile accepted invalid document", name)
		}
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("ReadFile accepted missing file")
	}
}

// TestCompareFlagsSlowdown is the acceptance check: an injected 2x
// slowdown must be flagged as a regression.
func TestCompareFlagsSlowdown(t *testing.T) {
	old := sampleReport(1e9)
	slow := sampleReport(2e9) // Fig4SimpleSwap doubled, Table2 unchanged
	c := Compare(old, slow, 1.5)
	if got := c.Regressions(); len(got) != 1 || got[0] != "Fig4SimpleSwap" {
		t.Fatalf("regressions = %v, want [Fig4SimpleSwap]", got)
	}
	d := c.Deltas[0]
	if d.Name != "Fig4SimpleSwap" || d.Status != StatusRegression || d.Ratio != 2 {
		t.Fatalf("delta = %+v", d)
	}
	// The reverse direction is an improvement, not a regression.
	c = Compare(slow, old, 1.5)
	if len(c.Regressions()) != 0 {
		t.Fatalf("reverse regressions = %v", c.Regressions())
	}
	if c.Deltas[0].Status != StatusImprovement {
		t.Fatalf("reverse delta = %+v", c.Deltas[0])
	}
	// Within threshold: ok.
	mild := sampleReport(1.2e9)
	if st := Compare(old, mild, 1.5).Deltas[0].Status; st != StatusOK {
		t.Fatalf("mild delta status = %q", st)
	}
}

func TestCompareEdgeCases(t *testing.T) {
	old := sampleReport(1e9)
	new := sampleReport(1e9)
	// New benchmark appears, one disappears, one loses its baseline.
	new.Benchmarks = append(new.Benchmarks, BenchResult{Name: "Brand", NsPerOp: 5})
	new.Benchmarks = new.Benchmarks[1:] // drop Fig4SimpleSwap
	old.Benchmarks[1].NsPerOp = 0       // Table2 zero baseline
	c := Compare(old, new, 0)           // <=1 picks the default threshold
	if c.Threshold != 1.25 {
		t.Fatalf("default threshold = %v", c.Threshold)
	}
	byName := map[string]Delta{}
	for _, d := range c.Deltas {
		byName[d.Name] = d
	}
	if byName["Brand"].Status != StatusNew {
		t.Fatalf("new = %+v", byName["Brand"])
	}
	if byName["Fig4SimpleSwap"].Status != StatusRemoved {
		t.Fatalf("removed = %+v", byName["Fig4SimpleSwap"])
	}
	if byName["Table2PassCounts"].Status != StatusNoBaseline {
		t.Fatalf("zero baseline = %+v", byName["Table2PassCounts"])
	}
	if got := c.Regressions(); len(got) != 0 {
		t.Fatalf("edge cases flagged as regressions: %v", got)
	}
	// Both empty reports compare cleanly.
	empty := Compare(&Report{}, &Report{}, 2)
	if len(empty.Deltas) != 0 || len(empty.Regressions()) != 0 {
		t.Fatalf("empty compare = %+v", empty)
	}
	tbl := c.Table().String()
	for _, want := range []string{"Brand", "new", "removed", "no-baseline"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
}

// TestMemSamplerStartStopLeak cycles a sampler and checks its background
// goroutines actually exit.
func TestMemSamplerStartStopLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		s := NewMemSampler(time.Millisecond)
		s.Start()
		s.Stop() // joins on the goroutine's done channel
	}
	// Stop waits for each goroutine's exit, so the count settles without
	// sleeping; allow a little slack for unrelated runtime goroutines.
	after := runtime.NumGoroutine()
	if after > before+2 {
		t.Fatalf("goroutines grew %d -> %d after 50 start/stop cycles", before, after)
	}
}

func TestMemSamplerSamples(t *testing.T) {
	s := NewMemSampler(2 * time.Millisecond)
	s.Start()
	sink := make([][]byte, 0, 256)
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		sink = append(sink, make([]byte, 64<<10))
	}
	p := s.Stop()
	_ = sink
	if p.Samples == 0 {
		t.Fatal("no samples over 50ms at 2ms interval")
	}
	if p.HeapAllocMax == 0 || p.HeapSysMax == 0 {
		t.Fatalf("empty heap maxima: %+v", p)
	}
	if p.TotalAllocDelta == 0 {
		t.Fatal("no allocation delta despite allocating")
	}
	if len(p.Series) == 0 || len(p.Series) > maxSeriesPoints {
		t.Fatalf("series length = %d", len(p.Series))
	}
	// Offsets are monotonically non-decreasing and the series keeps its
	// final sample.
	for i := 1; i < len(p.Series); i++ {
		if p.Series[i].OffsetMS < p.Series[i-1].OffsetMS {
			t.Fatalf("series offsets not monotone at %d: %+v", i, p.Series)
		}
	}
	// Stopping again without Start is a no-op profile.
	if q := s.Stop(); q.Samples != 0 {
		t.Fatalf("second Stop = %+v", q)
	}
	// Restart works after Stop.
	s.Start()
	s.Stop()
}

func TestDecimate(t *testing.T) {
	in := make([]MemSample, 200)
	for i := range in {
		in[i] = MemSample{OffsetMS: float64(i)}
	}
	out := decimate(in, 64)
	if len(out) != 64 {
		t.Fatalf("decimated to %d", len(out))
	}
	if out[0].OffsetMS != 0 || out[63].OffsetMS != 199 {
		t.Fatalf("endpoints = %v .. %v", out[0], out[63])
	}
	short := decimate(in[:10], 64)
	if len(short) != 10 {
		t.Fatalf("short input decimated to %d", len(short))
	}
}

// TestRunSmoke drives the runner end to end with synthetic benchmarks so
// it stays fast: report metadata, wall-clock and alloc numbers, extra
// metrics, and the sampled heap profile must all land in the report.
func TestRunSmoke(t *testing.T) {
	prev := flag.Lookup("test.benchtime").Value.String()
	defer flag.Set("test.benchtime", prev)

	benches := []Benchmark{
		{Name: "Alloc", Paper: "synthetic", Fn: func(b *testing.B) {
			b.ReportAllocs()
			var keep []byte
			for i := 0; i < b.N; i++ {
				keep = make([]byte, 1<<16)
				time.Sleep(time.Millisecond)
			}
			_ = keep
			b.ReportMetric(42, "virt-s")
		}},
		{Name: "Noop", Paper: "synthetic", Fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
			}
		}},
	}
	var lines []string
	r, err := Run(benches, RunOptions{
		BenchTime:   "3x",
		MemInterval: time.Millisecond,
		Commit:      "deadbee",
		Short:       true,
		Progress:    func(f string, a ...any) { lines = append(lines, f) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema != SchemaVersion || r.GOOS != runtime.GOOS || r.NumCPU != runtime.NumCPU() {
		t.Fatalf("metadata = %+v", r)
	}
	if r.Scale != DefaultBenchConfig().Scale || r.Seed != DefaultBenchConfig().Seed {
		t.Fatalf("config in report = scale %v seed %v", r.Scale, r.Seed)
	}
	if !r.Short || r.Commit != "deadbee" || r.Stamp() != "deadbee" {
		t.Fatalf("stamping = %+v", r)
	}
	if len(r.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %d", len(r.Benchmarks))
	}
	al := r.Find("Alloc")
	if al == nil || al.Iterations < 1 || al.NsPerOp <= 0 {
		t.Fatalf("Alloc result = %+v", al)
	}
	if al.AllocsPerOp < 1 {
		t.Fatalf("Alloc allocs/op = %d", al.AllocsPerOp)
	}
	if v, ok := al.Metric("virt-s"); !ok || v != 42 {
		t.Fatalf("Alloc virt-s = %v, %v", v, ok)
	}
	if al.Mem == nil || al.Mem.HeapSysMax == 0 {
		t.Fatalf("Alloc mem profile = %+v", al.Mem)
	}
	if len(lines) == 0 {
		t.Fatal("no progress lines")
	}
	// Round-trip the real thing.
	path := filepath.Join(t.TempDir(), "BENCH_smoke.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Fatal("runner report did not round-trip")
	}
}

// TestRunReportsBenchFailure: a failing benchmark surfaces as an error,
// not a zero entry.
func TestRunReportsBenchFailure(t *testing.T) {
	prev := flag.Lookup("test.benchtime").Value.String()
	defer flag.Set("test.benchtime", prev)
	_, err := Run([]Benchmark{{Name: "Bad", Fn: func(b *testing.B) { b.Fatal("boom") }}},
		RunOptions{BenchTime: "1x"})
	if err == nil || !strings.Contains(err.Error(), "Bad") {
		t.Fatalf("err = %v", err)
	}
}

// TestSetupCacheReuse: Setup derives once per configuration and SetConfig
// only invalidates on change. A tiny scale keeps derivation cheap.
func TestSetupCacheReuse(t *testing.T) {
	defer SetConfig(DefaultBenchConfig())
	tiny := BenchConfig{Scale: 0.001, Seed: 7}
	SetConfig(tiny)
	st1 := Setup()
	if st1.Config != tiny {
		t.Fatalf("state config = %+v", st1.Config)
	}
	SetConfig(tiny) // same config: cache kept
	if st2 := Setup(); st2 != st1 {
		t.Fatal("Setup re-derived despite unchanged config")
	}
	if len(st1.Parts) == 0 || len(st1.Table2Txns) == 0 || st1.Calib.TotalC2 <= 0 {
		t.Fatalf("derived state incomplete: %+v", st1.Calib)
	}
	SetConfig(BenchConfig{Scale: 0.002, Seed: 7})
	if st3 := Setup(); st3 == st1 {
		t.Fatal("Setup kept cache across config change")
	}
	// Zero-value config means defaults.
	SetConfig(BenchConfig{})
	setupMu.Lock()
	got := setupCfg
	setupMu.Unlock()
	if got != DefaultBenchConfig() {
		t.Fatalf("zero config resolved to %+v", got)
	}
}

func TestBenchmarkRegistry(t *testing.T) {
	benches := Benchmarks()
	want := []string{
		"Table2PassCounts", "Table3Partition", "Fig3Bottleneck1MemNode",
		"Fig3Resolved16MemNodes", "Table4NoLimitBase", "Table4Fault13MB",
		"Fig4DiskSwap", "Fig4SimpleSwap", "Fig4RemoteUpdate", "Fig5Migration",
		"PublicAPIQuickstart", "RMTPStoreFetchLoopback", "TCPPagerSwapLoopback",
		"TCPPagerEvictCollectLoopback", "CheckpointPass",
		"Pass2CountFlat", "Pass2CountHTree",
		"Pass2CountFlatUniform", "Pass2CountHTreeUniform",
		"RMTPUpdateBatchLoopback", "MemtableBuildProbe", "CandidateGen",
		"SimSleep", "SimChanPingPong",
	}
	if len(benches) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(benches), len(want))
	}
	for i, bm := range benches {
		if bm.Name != want[i] {
			t.Fatalf("registry[%d] = %q, want %q", i, bm.Name, want[i])
		}
		if bm.Fn == nil || bm.Paper == "" {
			t.Fatalf("registry[%d] %q incomplete", i, bm.Name)
		}
	}
}
