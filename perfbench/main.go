// Command perfbench is the repository's benchmark of record: whole mining
// runs, transactions in and frequent itemsets out, on the in-process TCP
// fleet (core.RunTCP) and the virtual-time simulator (core.Run); the traced
// run also times the sequential miner (apriori.Mine) pass by pass. Every
// mining call is checked against a reference result. See README.md for the
// workloads and metrics.
//
//	perfbench --workload fleet-swap --seed 1 --seconds 20 --trace 0
//
// The last line of output is one JSON object: correct, attempted, failed and
// the metrics, the end-to-end ones with --trace 0 and the per-layer ones with
// --trace 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/apriori"
)

// A run sets its workload up setupSamples × setupBatch times. One set-up
// takes about 10 ms, too short to time steadily on a shared host, so each
// setup_s sample is the mean of a batch of set-ups, and setup_s is the median
// of the samples.
const (
	setupSamples = 5
	setupBatch   = 20
)

// minSamples is the fewest timed mining calls a timed run makes, however
// short --seconds is.
const minSamples = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or \"all\"")
		seed    = flag.Int64("seed", 1, "workload generation seed")
		seconds = flag.Float64("seconds", 20, "how long to time mining calls; 0 makes one checked call")
		traced  = flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
		out     = flag.String("out", "perfbench-out", "directory for the traced run's spans and CPU profile")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fatalf("--trace must be 0 or 1")
	}
	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fatalf("%v", err)
		}
		selected = []*workload{w}
	}
	for _, w := range selected {
		r := &runner{w: w, seed: *seed, seconds: *seconds, mine: w.mine, log: os.Stderr}
		var res *result
		var err error
		if *traced == 1 {
			res, err = r.traced(filepath.Join(*out, fmt.Sprintf("%s-seed%d", w.name, *seed)))
		} else {
			res, err = r.timed()
		}
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		r.summary(os.Stdout, res, *traced == 1)
		line, err := json.Marshal(res)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		fmt.Println(string(line))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// runner makes one benchmark run of one workload.
type runner struct {
	w       *workload
	seed    int64
	seconds float64
	// mine is the mining call (w.mine; the test substitutes a faulty one).
	mine func(*env) (*outcome, error)
	log  io.Writer

	chk               checker
	attempted, failed int
	runs              int // run ids handed to set-ups and traced calls

	setupS    []float64 // mean set-up wall time of each batch
	generateS []float64 // each set-up's quest.Generate time
	samples   []sample  // timed mining calls
	heapMB    []float64 // exact peak live heap of the untimed calls
}

// sample is one mining call.
type sample struct {
	mineS    float64
	peakHeap int64
	peakLent int64
	rt       runtimeCounters
	out      *outcome
}

// prepare sets the workload up setupSamples × setupBatch times, keeping the
// last set-up, and computes the reference result, which no metric includes.
func (r *runner) prepare(tr *tracer) (*env, error) {
	var e *env
	for i := 0; i < setupSamples; i++ {
		var batch float64
		for j := 0; j < setupBatch; j++ {
			if e != nil {
				e.close()
			}
			runtime.GC()
			r.runs++
			run := r.runs
			root := tr.open("setup", 0, run)
			var t setupTimes
			var err error
			e, t, err = r.w.setup(r.seed, tr, root, run)
			tr.end(root)
			if err != nil {
				return nil, err
			}
			batch += t.total()
			r.generateS = append(r.generateS, t.generate)
		}
		r.setupS = append(r.setupS, batch/setupBatch)
	}
	var ref *apriori.Result
	var err error
	r.runs++
	tr.time("oracle", 0, r.runs, func() { ref, err = oracle(r.w.prob, e.txns) })
	if err != nil {
		e.close()
		return nil, fmt.Errorf("reference result: %w", err)
	}
	r.chk = checker{oracle: ref}
	return e, nil
}

// callOpts say what to record around one mining call besides its time.
type callOpts struct {
	tr        *tracer
	run       int
	exactHeap bool          // force collections to measure the peak live heap exactly
	lent      func() int64  // a gauge sampled alongside the heap
	profile   *bytes.Buffer // receives a CPU profile of the call
}

// call makes one checked mining call.
func (r *runner) call(e *env, o callOpts) (sample, error) {
	tr, run := o.tr, o.run
	runtime.GC()
	if o.profile != nil {
		if err := pprof.StartCPUProfile(o.profile); err != nil {
			return sample{}, fmt.Errorf("cpu profile: %w", err)
		}
	}
	before := readRuntimeCounters()
	hs := startHeapSampler(o.exactHeap, o.lent)
	start := time.Now()
	out, err := r.mine(e)
	end := time.Now()
	if o.profile != nil {
		pprof.StopCPUProfile()
	}
	heap, peakLent := hs.finish()
	s := sample{
		mineS:    end.Sub(start).Seconds(),
		peakHeap: heap,
		peakLent: peakLent,
		rt:       readRuntimeCounters().sub(before),
		out:      out,
	}
	root := tr.add("mine", 0, run, start, end)
	if out != nil && out.tcp != nil {
		// On the TCP backend pass times are wall time; lay them end to end
		// from the call's start.
		at := start
		for k := 1; k < len(out.tcp.Result.PassTimes); k++ {
			d := time.Duration(out.tcp.Result.PassTimes[k])
			tr.add(fmt.Sprintf("pass %d", k), root, run, at, at.Add(d))
			at = at.Add(d)
		}
	}
	r.attempted++
	if err == nil {
		id := tr.open("check", root, run)
		err = r.chk.check(out)
		tr.end(id)
	}
	if err != nil {
		r.failed++
		fmt.Fprintf(r.log, "perfbench: %s seed %d call %d failed: %v\n", r.w.name, r.seed, r.attempted, err)
	}
	return s, nil
}

// sampleFor makes untraced mining calls until the time is spent.
func (r *runner) sampleFor(e *env, seconds float64, atLeast int) []sample {
	var out []sample
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(out) < atLeast || time.Now().Before(deadline) {
		s, _ := r.call(e, callOpts{}) // only a CPU profile can fail to start
		out = append(out, s)
	}
	return out
}

// timed is the run that reports the end-to-end metrics, with tracing off.
// After the set-ups and the reference result it measures the peak heap on
// the workload's heapCalls untimed calls, then times calls for the run's
// seconds. With --seconds 0 it makes one call of each kind.
func (r *runner) timed() (*result, error) {
	e, err := r.prepare(nil)
	if err != nil {
		return nil, err
	}
	defer e.close()
	reps, atLeast := r.w.heapCalls, minSamples
	if r.seconds <= 0 {
		reps, atLeast = 1, 1
	}
	var heap []float64
	for i := 0; i < reps; i++ {
		s, _ := r.call(e, callOpts{exactHeap: true})
		heap = append(heap, float64(s.peakHeap)/mb)
	}
	r.heapMB = heap
	r.samples = r.sampleFor(e, r.seconds, atLeast)
	var mine []float64
	for _, s := range r.samples {
		mine = append(mine, s.mineS)
	}
	return r.result(endToEnd, map[string]float64{
		"mine_s":       median(mine),
		"setup_s":      median(r.setupS),
		"peak_heap_mb": median(heap),
	}), nil
}

func (r *runner) result(defs []metricDef, values map[string]float64) *result {
	return &result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metricsOf(defs, values),
	}
}

// summary prints the metrics by name with their units and sample counts.
func (r *runner) summary(w io.Writer, res *result, traced bool) {
	fmt.Fprintf(w, "workload %s  seed %d  calls %d  failed %d  fail_ratio %.4g\n",
		r.w.name, r.seed, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	if traced {
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
		}
		return
	}
	var mine []float64
	for _, s := range r.samples {
		mine = append(mine, s.mineS)
	}
	n := len(mine)
	fmt.Fprintf(w, "  %-13s %10.4f s   median of %d calls (min %.4f, quartiles %.4f %.4f)", "mine_s",
		res.Metrics["mine_s"].Value, n, quantile(mine, 0), quantile(mine, 0.25), quantile(mine, 0.75))
	if p := tailPercentile(n); p > 0 {
		fmt.Fprintf(w, "; p%d %.4f s", p, quantile(mine, float64(p)/100))
	} else {
		fmt.Fprintf(w, "; max %.4f s (too few calls for a percentile with 10 above it)", quantile(mine, 1))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %-13s %10.4f s   median of %d means of %d set-ups\n", "setup_s",
		res.Metrics["setup_s"].Value, len(r.setupS), setupBatch)
	fmt.Fprintf(w, "  %-13s %10.1f MB  median of %d untimed calls (lowest %.1f, highest %.1f)\n", "peak_heap_mb",
		res.Metrics["peak_heap_mb"].Value, len(r.heapMB), quantile(r.heapMB, 0), quantile(r.heapMB, 1))
	fmt.Fprintf(w, "  %-13s %10.4f     %d of %d calls failed\n", "fail_ratio",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
}
