package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

// TestAlteredSupportFailsRun runs the sim-swap workload once with one
// support of the first call's result changed: that call must count as
// failed and the run as incorrect, while an unaltered run stays correct.
func TestAlteredSupportFailsRun(t *testing.T) {
	w, err := findWorkload("sim-swap")
	if err != nil {
		t.Fatal(err)
	}
	for _, alter := range []bool{false, true} {
		calls := 0
		r := &runner{w: w, seed: 1, log: io.Discard, mine: func(e *env) (*outcome, error) {
			o, err := w.mine(e)
			calls++
			if err == nil && alter && calls == 1 {
				o.res.Support[o.res.Large[2][0].Key()]++
			}
			return o, err
		}}
		res, err := r.timed()
		if err != nil {
			t.Fatal(err)
		}
		wantFailed := 0
		if alter {
			wantFailed = 1
		}
		if res.Attempted != 2 || res.Failed != wantFailed || res.Correct != !alter {
			t.Errorf("altered=%v: attempted %d, failed %d, correct %v; want 2, %d, %v",
				alter, res.Attempted, res.Failed, res.Correct, wantFailed, !alter)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metrics in
// step with the ones this program runs and reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		spec []metric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.spec), len(c.defs))
			continue
		}
		for i, m := range c.spec {
			d := c.defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %v, program %v", c.kind, i, m, d)
			}
		}
	}
}

// TestFoldCPUProfile decodes a real CPU profile of a busy loop in this
// package and finds its time in the "other" bucket.
func TestFoldCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	got := map[string]float64{}
	if err := foldCPUProfile(buf.Bytes(), got); err != nil {
		t.Fatal(err)
	}
	if got["other"] < 0.1 {
		t.Errorf("busy loop folded to %v, want at least 0.1 s in other", got)
	}
}

var sink uint64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			sink = sink*31 + uint64(i)
		}
	}
}
