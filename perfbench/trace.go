package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, in seconds since the tracer started.
// Spans of one mining call or one set-up share a run id.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Run    int     `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the benchmark writes them at exit. A
// nil tracer records nothing, so the untraced run calls the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its id; close it with end.
func (tr *tracer) open(name string, parent, run int) int {
	if tr == nil {
		return 0
	}
	now := time.Since(tr.t0).Seconds()
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Run: run, Name: name, Start: now, End: now})
	return len(tr.spans)
}

func (tr *tracer) end(id int) {
	if tr == nil || id == 0 {
		return
	}
	tr.spans[id-1].End = time.Since(tr.t0).Seconds()
}

// add records a span whose times were measured elsewhere, relative to the
// tracer's start.
func (tr *tracer) add(name string, parent, run int, start, end time.Time) int {
	if tr == nil {
		return 0
	}
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Run: run, Name: name,
		Start: start.Sub(tr.t0).Seconds(), End: end.Sub(tr.t0).Seconds()})
	return len(tr.spans)
}

// time runs f inside a span and returns its wall time in seconds, traced
// or not.
func (tr *tracer) time(name string, parent, run int, f func()) float64 {
	id := tr.open(name, parent, run)
	t0 := time.Now()
	f()
	d := time.Since(t0).Seconds()
	tr.end(id)
	return d
}

// write saves the spans as JSON.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	data, err := json.MarshalIndent(tr.spans, "", " ")
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
