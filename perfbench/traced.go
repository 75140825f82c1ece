package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/apriori"
	"repro/internal/itemset"
	"repro/internal/memtable"
	"repro/internal/remotemem"
	"repro/internal/rmtp"
)

// probeCalls is how many store-out + fetch-in round trips the isolated pager
// probe times.
const probeCalls = 2000

// prefixReps is how many times each prefix-capped sequential mine runs.
const prefixReps = 3

// traced is the run that reports the per-layer metrics. It spends half its
// seconds on untraced calls and half on traced ones, whose median difference
// is the tracing overhead. Traced calls run under a CPU profile, and on
// fleet-swap the miners reach the server through a fault-free relay that
// counts the wire bytes. Spans and the last call's CPU profile are written
// under dir.
func (r *runner) traced(dir string) (*result, error) {
	tr := newTracer()
	e, err := r.prepare(tr)
	if err != nil {
		return nil, err
	}
	defer e.close()
	vals := map[string]float64{"quest.generate_s": median(r.generateS)}

	r.call(e, callOpts{}) // warm-up
	untraced := r.sampleFor(e, r.seconds/2, 2)

	var restore func()
	r.runs++
	tr.time("chaos.NewProxy", 0, r.runs, func() { restore, err = e.relay(r.seed) })
	if err != nil {
		return nil, err
	}
	var lent func() int64
	if len(e.servers) > 0 {
		lent = e.lentBytes
	}

	cpu := map[string]float64{}
	var tracedS []sample
	var lastProfile []byte
	deadline := time.Now().Add(time.Duration(r.seconds / 2 * float64(time.Second)))
	for len(tracedS) < 2 || time.Now().Before(deadline) {
		srvBefore := serverCounts(e)
		proxyBefore := proxyCounts(e)
		var prof bytes.Buffer
		r.runs++
		s, err := r.call(e, callOpts{tr: tr, run: r.runs, lent: lent, profile: &prof})
		if err != nil {
			return nil, err
		}
		if err := foldCPUProfile(prof.Bytes(), cpu); err != nil {
			return nil, err
		}
		lastProfile = prof.Bytes()
		tracedS = append(tracedS, s)
		if s.out == nil {
			continue
		}
		srv := serverCounts(e).sub(srvBefore)
		vals["rmtp.server_stores"] = float64(srv.stores)
		vals["rmtp.server_fetches"] = float64(srv.fetches)
		vals["rmtp.server_updates"] = float64(srv.updates)
		px := proxyCounts(e).sub(proxyBefore)
		vals["rmtp.wire_mb_up"] = float64(px.up) / mb
		vals["rmtp.wire_mb_down"] = float64(px.down) / mb
	}
	restore()

	n := float64(len(tracedS))
	var rt runtimeCounters
	var tracedMine, untracedMine, lentMB []float64
	for _, s := range tracedS {
		rt = rt.add(s.rt)
		tracedMine = append(tracedMine, s.mineS)
		lentMB = append(lentMB, float64(s.peakLent)/mb)
	}
	for _, s := range untraced {
		untracedMine = append(untracedMine, s.mineS)
	}
	vals["go.cpu_s"] = rt.cpuS / n
	vals["go.gc_cpu_s"] = rt.gcCPUS / n
	vals["go.alloc_mb"] = float64(rt.allocBytes) / mb / n
	vals["go.allocs"] = float64(rt.allocs) / n
	vals["go.gc_cycles"] = float64(rt.gcCycles) / n
	for _, b := range cpuBuckets {
		vals["cpu."+b+"_s"] = cpu[b] / n
	}
	vals["rmtp.peak_lent_mb"] = median(lentMB)
	vals["trace.untraced_mine_s"] = median(untracedMine)
	vals["trace.traced_mine_s"] = median(tracedMine)
	vals["trace.overhead_s"] = median(tracedMine) - median(untracedMine)

	if last := tracedS[len(tracedS)-1].out; last != nil {
		r.countMetrics(vals, e, last)
	}
	r.passTimes(vals, untraced)
	if len(e.servers) > 0 {
		if err := r.pagerProbe(vals, e); err != nil {
			return nil, err
		}
	}
	if r.w.seqPasses {
		if err := r.prefixPasses(vals, e, tr); err != nil {
			return nil, err
		}
	}

	if err := tr.write(dir + "-spans.json"); err != nil {
		return nil, err
	}
	if err := os.WriteFile(dir+"-cpu.pprof", lastProfile, 0o644); err != nil {
		return nil, fmt.Errorf("write cpu profile: %w", err)
	}
	return r.result(perLayer, vals), nil
}

// countMetrics fills the exact counts of one mining call.
func (r *runner) countMetrics(vals map[string]float64, e *env, o *outcome) {
	var cands, large int
	for _, p := range o.res.Passes {
		if p.K >= 2 {
			cands += p.Candidates
			large += p.Large
		}
	}
	vals["apriori.candidates"] = float64(cands)
	if cands > 0 {
		vals["apriori.large_per_candidate"] = float64(large) / float64(cands)
	}
	subsets := float64(subsetCount(e.txns, o.res.Passes))
	vals["hpa.probes_shipped"] = subsets
	if r.w.seqPasses {
		vals["apriori.subsets"] = subsets
	}

	var faults, evictions, updates uint64
	var peak int64
	for _, ns := range o.nodes {
		faults += ns.Pagefaults
		evictions += ns.Evictions
		updates += ns.Updates
		peak = max(peak, ns.PeakResidentBytes)
	}
	vals["memtable.pagefaults"] = float64(faults)
	vals["memtable.evictions"] = float64(evictions)
	vals["memtable.updates"] = float64(updates)
	vals["memtable.peak_resident_mb"] = float64(peak) / mb

	if o.tcp != nil {
		vals["transport.mesh_msgs"] = float64(o.tcp.MeshMessages)
		vals["transport.mesh_mb"] = float64(o.tcp.MeshBytes) / mb
		var p remotemem.TCPPagerStats
		for _, st := range o.tcp.Pagers {
			if st == nil {
				continue
			}
			p.Stores += st.Stores
			p.Fetches += st.Fetches
			p.Updates += st.Updates
			p.UpdateFrames += st.UpdateFrames
			p.VerifiedFetches += st.VerifiedFetches
			p.Mismatches += st.Mismatches
			p.Failovers += st.Failovers
			p.Recoveries += st.Recoveries
		}
		vals["remotemem.stores"] = float64(p.Stores)
		vals["remotemem.fetches"] = float64(p.Fetches)
		vals["remotemem.updates"] = float64(p.Updates)
		vals["remotemem.update_frames"] = float64(p.UpdateFrames)
		if p.Updates > 0 {
			vals["remotemem.frames_per_update"] = float64(p.UpdateFrames) / float64(p.Updates)
		}
		vals["remotemem.verified_fetches"] = float64(p.VerifiedFetches)
		vals["remotemem.mismatches"] = float64(p.Mismatches)
		vals["remotemem.failovers"] = float64(p.Failovers)
		vals["remotemem.recoveries"] = float64(p.Recoveries)
	}
	if o.sim != nil {
		info := o.sim
		// The simulated pager is remotemem.Client; its memory nodes'
		// remotemem.Store counters stand in for the TCP pager's.
		vals["remotemem.stores"] = float64(info.StoreStores)
		vals["remotemem.fetches"] = float64(info.StoreFetches)
		vals["remotemem.updates"] = float64(info.StoreUpdates)
		vals["remotemem.failovers"] = float64(info.Resilience.Failovers)
		vals["sim.events"] = float64(info.Events)
		vals["sim.virt_pass2_s"] = info.Result.Pass2Time.Seconds()
		vals["sim.max_pagefaults"] = float64(info.Result.MaxPagefaults)
		vals["simnet.messages"] = float64(info.Result.Messages)
		vals["simnet.mb"] = float64(info.Result.Bytes) / mb
		vals["sim.events_per_s"] = float64(info.Events) / vals["trace.untraced_mine_s"]
	}
}

// subsetCount is Σ over transactions and counted passes k ≥ 2 of C(|t|, k):
// the k-subsets a miner enumerates and HPA ships.
func subsetCount(txns []itemset.Itemset, passes []apriori.PassStats) uint64 {
	var total uint64
	for _, p := range passes {
		if p.K < 2 || p.Candidates == 0 {
			continue
		}
		for _, t := range txns {
			total += binomial(len(t), p.K)
		}
	}
	return total
}

func binomial(n, k int) uint64 {
	if k < 0 || k > n {
		return 0
	}
	c := uint64(1)
	for i := 1; i <= k; i++ {
		c = c * uint64(n-k+i) / uint64(i)
	}
	return c
}

// passTimes reports HPA's per-pass wall times on the TCP backend, as the
// median over the untraced calls.
func (r *runner) passTimes(vals map[string]float64, calls []sample) {
	for k := 2; k <= r.w.prob.passes; k++ {
		var v []float64
		for _, s := range calls {
			if s.out != nil && s.out.tcp != nil && k < len(s.out.tcp.Result.PassTimes) {
				v = append(v, time.Duration(s.out.tcp.Result.PassTimes[k]).Seconds())
			}
		}
		if len(v) > 0 {
			vals[fmt.Sprintf("hpa.pass%d_s", k)] = median(v)
		}
	}
}

// prefixPasses times apriori.Mine capped at 1..passes passes and reports
// each pass's time as the difference of consecutive medians.
func (r *runner) prefixPasses(vals map[string]float64, e *env, tr *tracer) error {
	prev := 0.0
	for k := 1; k <= r.w.prob.passes; k++ {
		var v []float64
		for i := 0; i < prefixReps; i++ {
			var err error
			v = append(v, tr.time(fmt.Sprintf("apriori.Mine passes<=%d", k), 0, 0, func() {
				_, err = apriori.Mine(e.txns, apriori.Config{MinSupport: r.w.prob.minSup, MaxPasses: k})
			}))
			if err != nil {
				return fmt.Errorf("prefix mine: %w", err)
			}
		}
		m := median(v)
		if k >= 2 {
			vals[fmt.Sprintf("apriori.pass%d_s", k)] = m - prev
		}
		prev = m
	}
	return nil
}

// pagerProbe times isolated TCPPager.StoreOut + FetchIn round trips against
// the workload's server, with lines holding as many entries as an average
// pass-2 line of the busiest node.
func (r *runner) pagerProbe(vals map[string]float64, e *env) error {
	tp, err := remotemem.NewTCPPager("perfbench-probe", e.addrs[:1], rmtp.Options{})
	if err != nil {
		return fmt.Errorf("pager probe: %w", err)
	}
	defer tp.Close()
	linesPerNode := totalLines / r.w.nodes
	perLine := max(1, (e.calib.perNode+linesPerNode/2)/linesPerNode)
	entries := make([]memtable.Entry, perLine)
	for i := range entries {
		entries[i] = memtable.Entry{Key: itemset.Itemset{itemset.Item(2 * i), itemset.Item(2*i + 1)}.Key(), Count: 1}
	}
	var rtt []float64
	for i := 0; i < probeCalls; i++ {
		t0 := time.Now()
		loc, err := tp.StoreOut(nil, i, entries)
		if err == nil {
			_, err = tp.FetchIn(nil, i, loc)
		}
		if err != nil {
			return fmt.Errorf("pager probe: %w", err)
		}
		rtt = append(rtt, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	vals["remotemem.swap_rtt_us.p50"] = quantile(rtt, 0.50)
	vals["remotemem.swap_rtt_us.p99"] = quantile(rtt, 0.99)
	return nil
}

type serverStats struct{ stores, fetches, updates uint64 }

func (a serverStats) sub(b serverStats) serverStats {
	return serverStats{a.stores - b.stores, a.fetches - b.fetches, a.updates - b.updates}
}

func serverCounts(e *env) serverStats {
	var t serverStats
	for _, s := range e.servers {
		st, f, u, _ := s.Stats()
		t.stores += st
		t.fetches += f
		t.updates += u
	}
	return t
}

type wireStats struct{ up, down uint64 }

func (a wireStats) sub(b wireStats) wireStats { return wireStats{a.up - b.up, a.down - b.down} }

func proxyCounts(e *env) wireStats {
	var t wireStats
	for _, p := range e.proxies {
		st := p.Stats()
		t.up += st.BytesUp
		t.down += st.BytesDown
	}
	return t
}
