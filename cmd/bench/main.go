// bench runs the repository's paper-anchored benchmarks programmatically
// and maintains the machine-readable perf trajectory: every run writes a
// schema-versioned BENCH_<commit-or-stamp>.json plus a stable
// BENCH_current.json, and -compare diffs two reports with a regression
// threshold so CI (and the next PR) can see perf move.
//
//	bench                          # run all, write BENCH_*.json + BENCH_current.json
//	bench -short                   # one iteration per bench (CI smoke)
//	bench -out BENCH_ci.json       # write a single file, leave BENCH_current.json alone
//	bench -compare old.json new.json [-threshold 1.25] [-warn]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"repro/internal/perf"
	"repro/internal/stats"
)

func main() {
	var (
		short     = flag.Bool("short", false, "one iteration per benchmark (CI smoke)")
		benchTime = flag.String("benchtime", "", `testing benchtime (default "2x", or "1x" with -short)`)
		scale     = flag.Float64("scale", 0, "workload scale (default 0.01, the bench scale)")
		seed      = flag.Int64("seed", 0, "workload seed (default 1)")
		memEach   = flag.Duration("mem-interval", 250*time.Millisecond, "heap sampling interval (0 disables)")
		dir       = flag.String("dir", ".", "directory for BENCH_*.json and BENCH_current.json")
		out       = flag.String("out", "", "write the report only to this file (skips BENCH_current.json)")
		run       = flag.String("run", "", "only run benchmarks whose name matches this regular expression")
		compare   = flag.Bool("compare", false, "compare two reports: bench -compare old.json new.json")
		threshold = flag.Float64("threshold", 1.25, "slowdown ratio that flags a regression in -compare")
		warn      = flag.Bool("warn", false, "with -compare: report regressions but exit 0 (warn-only CI)")
	)
	flag.Parse()

	if *compare {
		// The flag package stops at the first positional argument, so
		// `bench -compare old.json new.json -threshold 1.15` would leave
		// the trailing flags unparsed. Re-parse interleaved flags until
		// only the two report paths remain.
		var paths []string
		rest := flag.Args()
		for len(rest) > 0 {
			if strings.HasPrefix(rest[0], "-") {
				if err := flag.CommandLine.Parse(rest); err != nil {
					os.Exit(2)
				}
				rest = flag.Args()
				continue
			}
			paths = append(paths, rest[0])
			rest = rest[1:]
		}
		if len(paths) != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			os.Exit(2)
		}
		if err := runCompare(paths[0], paths[1], mustRunFilter(*run), *threshold, *warn); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	bt := *benchTime
	if bt == "" {
		if *short {
			bt = "1x"
		} else {
			bt = "2x"
		}
	}
	benches := perf.Benchmarks()
	if *run != "" {
		re := mustRunFilter(*run)
		var kept []perf.Benchmark
		for _, bm := range benches {
			if re.MatchString(bm.Name) {
				kept = append(kept, bm)
			}
		}
		if len(kept) == 0 {
			fmt.Fprintf(os.Stderr, "bench: no benchmark matches -run %q\n", *run)
			os.Exit(2)
		}
		benches = kept
	}

	opts := perf.RunOptions{
		Config:      perf.BenchConfig{Scale: *scale, Seed: *seed},
		BenchTime:   bt,
		MemInterval: *memEach,
		Short:       *short,
		Commit:      gitCommit(),
		Progress: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	fmt.Fprintln(os.Stderr, "deriving workload and calibration...")
	perf.SetConfig(opts.Config)
	perf.Setup()
	report, err := perf.Run(benches, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	paths := []string{filepath.Join(*dir, "BENCH_"+report.Stamp()+".json"),
		filepath.Join(*dir, "BENCH_current.json")}
	if *out != "" {
		paths = []string{*out}
	}
	for _, p := range paths {
		if err := report.WriteFile(p); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "wrote", p)
	}
	fmt.Println(summaryTable(report))
}

// mustRunFilter compiles the -run expression (nil when empty), exiting on a
// malformed one.
func mustRunFilter(run string) *regexp.Regexp {
	if run == "" {
		return nil
	}
	re, err := regexp.Compile(run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: bad -run: %v\n", err)
		os.Exit(2)
	}
	return re
}

// runCompare loads two reports, prints the delta table, and fails on
// regressions unless warn-only. A -run expression narrows the comparison to
// matching benchmarks, so CI can hold one kernel to a tighter threshold
// than the rest of the suite.
func runCompare(oldPath, newPath string, run *regexp.Regexp, threshold float64, warn bool) error {
	oldRep, err := perf.ReadFile(oldPath)
	if err != nil {
		return err
	}
	newRep, err := perf.ReadFile(newPath)
	if err != nil {
		return err
	}
	if run != nil {
		oldRep = filterReport(oldRep, run)
		newRep = filterReport(newRep, run)
		if len(oldRep.Benchmarks) == 0 || len(newRep.Benchmarks) == 0 {
			return fmt.Errorf("no benchmark matches -run %q in both reports", run)
		}
	}
	c := perf.Compare(oldRep, newRep, threshold)
	fmt.Println(c.Table())
	if oldRep.Short != newRep.Short || oldRep.Scale != newRep.Scale {
		fmt.Printf("note: runs differ in effort (short %v vs %v, scale %g vs %g); deltas are noisier\n",
			oldRep.Short, newRep.Short, oldRep.Scale, newRep.Scale)
	}
	if regs := c.Regressions(); len(regs) > 0 {
		msg := fmt.Sprintf("%d regression(s): %s", len(regs), strings.Join(regs, ", "))
		if warn {
			fmt.Println("WARNING:", msg)
			return nil
		}
		return fmt.Errorf("%s", msg)
	}
	fmt.Println("no regressions")
	return nil
}

// filterReport returns a shallow copy of r keeping only benchmarks whose
// name matches run.
func filterReport(r *perf.Report, run *regexp.Regexp) *perf.Report {
	cp := *r
	cp.Benchmarks = nil
	for _, b := range r.Benchmarks {
		if run.MatchString(b.Name) {
			cp.Benchmarks = append(cp.Benchmarks, b)
		}
	}
	return &cp
}

// summaryTable renders the human-readable run summary: wall-clock and
// alloc numbers plus the key virtual-time and latency metrics (the rmtp
// histogram's Mean/Quantile values arrive via the lat-*-ns extras).
func summaryTable(r *perf.Report) *stats.Table {
	tbl := stats.NewTable(
		fmt.Sprintf("bench run %s (scale %g, benchtime %s)", r.Stamp(), r.Scale, r.BenchTime),
		"benchmark", "paper", "ns/op", "allocs/op", "heap max", "virt-s", "faults", "lat p50/p99")
	for _, b := range r.Benchmarks {
		heap := "-"
		if b.Mem != nil {
			heap = stats.Bytes(int64(b.Mem.HeapInuseMax))
		}
		cell := func(name, format string) string {
			if v, ok := b.Metric(name); ok {
				return fmt.Sprintf(format, v)
			}
			return "-"
		}
		lat := "-"
		if p50, ok := b.Metric("lat-p50-ns"); ok {
			p99, _ := b.Metric("lat-p99-ns")
			lat = fmt.Sprintf("%.0fµs/%.0fµs", p50/1e3, p99/1e3)
		}
		tbl.Add(b.Name, b.Paper,
			fmt.Sprintf("%.0f", b.NsPerOp),
			fmt.Sprintf("%d", b.AllocsPerOp),
			heap,
			cell("virt-s", "%.1f"),
			cell("faults", "%.0f"),
			lat)
	}
	return tbl
}

// gitCommit resolves the short HEAD revision, "" when unavailable (not a
// checkout, no git binary).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
