package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// heapSampler watches a mining call from a goroutine of its own. An exact
// sampler measures the peak live Go heap: the runtime updates its live-heap
// count only when a collection ends, so it forces collections back to back,
// which slows the call; calls sampled that way are not timed. A sampler may
// also poll a gauge (the rmtp servers' lent bytes) every sampleEvery.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	peakHeap, peakGauge int64
}

const sampleEvery = time.Millisecond

// startHeapSampler returns nil, and starts nothing, when there is nothing to
// sample.
func startHeapSampler(exact bool, gauge func() int64) *heapSampler {
	if !exact && gauge == nil {
		return nil
	}
	s := &heapSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			if exact {
				runtime.GC()
				metrics.Read(sample)
				s.peakHeap = max(s.peakHeap, int64(sample[0].Value.Uint64()))
			}
			if gauge != nil {
				s.peakGauge = max(s.peakGauge, gauge())
			}
			if exact {
				select {
				case <-s.stop:
					return
				default:
					continue
				}
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peaks in bytes; a nil sampler
// read nothing.
func (s *heapSampler) finish() (heap, gauge int64) {
	if s == nil {
		return 0, 0
	}
	close(s.stop)
	s.wg.Wait()
	return s.peakHeap, s.peakGauge
}

// runtimeCounters is a snapshot of the process's cumulative Go runtime and
// CPU counters; the difference of two snapshots is what a call cost.
type runtimeCounters struct {
	cpuS, gcCPUS       float64
	allocBytes, allocs uint64
	gcCycles           uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntimeCounters() runtimeCounters {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return runtimeCounters{
		cpuS:       cpu.Seconds(),
		gcCPUS:     samples[0].Value.Float64(),
		allocBytes: samples[1].Value.Uint64(),
		allocs:     samples[2].Value.Uint64(),
		gcCycles:   samples[3].Value.Uint64(),
	}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{
		cpuS:       a.cpuS - b.cpuS,
		gcCPUS:     a.gcCPUS - b.gcCPUS,
		allocBytes: a.allocBytes - b.allocBytes,
		allocs:     a.allocs - b.allocs,
		gcCycles:   a.gcCycles - b.gcCycles,
	}
}

func (a runtimeCounters) add(b runtimeCounters) runtimeCounters {
	return runtimeCounters{
		cpuS:       a.cpuS + b.cpuS,
		gcCPUS:     a.gcCPUS + b.gcCPUS,
		allocBytes: a.allocBytes + b.allocBytes,
		allocs:     a.allocs + b.allocs,
		gcCycles:   a.gcCycles + b.gcCycles,
	}
}

// median returns the middle of the values (the mean of the two middle ones
// for an even count).
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile (0..1) by the nearest-rank rule.
func quantile(v []float64, q float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	i := int(q*float64(len(s)) + 0.5)
	return s[min(max(i-1, 0), len(s)-1)]
}

// tailPercentile is the highest whole percentile that has at least ten
// samples above it, or 0 when there are too few samples for one above the
// median.
func tailPercentile(n int) int {
	if n < 20 {
		return 0
	}
	return 100 * (n - 10) / n
}

const mb = 1 << 20
