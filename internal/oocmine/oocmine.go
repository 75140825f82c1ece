package oocmine

import (
	"errors"
	"sort"

	"repro/internal/apriori"
	"repro/internal/itemset"
	"repro/internal/memtable"
	"repro/internal/transport"
)

// Config parameterizes a mining run.
type Config struct {
	MinSupport float64
	// LimitBytes is the local candidate-memory budget; 0 disables spilling.
	LimitBytes int64
	Policy     memtable.Policy
	// Lines is the hash-line count (default 4096).
	Lines int
	// Pager receives spilled hash lines. Required when LimitBytes > 0.
	Pager memtable.Pager
	// MaxPasses caps passes (0 = to completion).
	MaxPasses int
}

// Mine runs out-of-core Apriori over the transactions. Each pass from 2 on
// builds a fresh memtable.Table of the candidates (line = itemset hash mod
// Lines), counts every transaction's k-subsets into it, and collects the
// counts back; the table swaps lines through cfg.Pager whenever the budget
// is exceeded. The returned Stats sum every pass's table counters, except
// PeakBytes, which is the largest resident footprint of any pass.
func Mine(txns []itemset.Itemset, cfg Config) (*apriori.Result, memtable.Stats, error) {
	var stats memtable.Stats
	if cfg.MinSupport <= 0 || cfg.MinSupport > 1 {
		return nil, stats, errors.New("oocmine: MinSupport must be in (0,1]")
	}
	if len(txns) == 0 {
		return nil, stats, errors.New("oocmine: no transactions")
	}
	if cfg.LimitBytes > 0 && cfg.Pager == nil {
		return nil, stats, errors.New("oocmine: memory limit set but no pager configured")
	}
	if cfg.LimitBytes < 0 {
		return nil, stats, errors.New("oocmine: negative memory limit")
	}
	if cfg.Lines == 0 {
		cfg.Lines = 4096
	}
	minCount := apriori.MinCount(cfg.MinSupport, len(txns))
	res := &apriori.Result{
		Large:        [][]itemset.Itemset{nil},
		Support:      make(map[string]int),
		MinCount:     minCount,
		Transactions: len(txns),
	}

	// Pass 1.
	counts := make(map[itemset.Item]int)
	for _, t := range txns {
		for _, it := range t {
			counts[it]++
		}
	}
	var l1 []itemset.Itemset
	for it, c := range counts {
		if c >= minCount {
			is := itemset.Itemset{it}
			l1 = append(l1, is)
			res.Support[is.Key()] = c
		}
	}
	sort.Slice(l1, func(i, j int) bool { return l1[i].Less(l1[j]) })
	res.Large = append(res.Large, l1)
	res.Passes = append(res.Passes, apriori.PassStats{K: 1, Candidates: len(counts), Large: len(l1)})

	p := transport.NewRealProc()
	lineOf := func(is itemset.Itemset) int { return int(is.Hash() % uint64(cfg.Lines)) }
	var key []byte
	prev := l1
	for k := 2; ; k++ {
		if cfg.MaxPasses != 0 && k > cfg.MaxPasses {
			break
		}
		cands := itemset.AprioriGen(prev)
		if len(cands) == 0 {
			res.Passes = append(res.Passes, apriori.PassStats{K: k})
			break
		}
		tab, err := memtable.New(memtable.Config{
			Lines:      cfg.Lines,
			LimitBytes: cfg.LimitBytes,
			Policy:     cfg.Policy,
		}, cfg.Pager)
		if err != nil {
			return nil, stats, err
		}
		// Every key is written into one reused scratch buffer; the table
		// copies what it keeps, so no key is allocated per subset.
		for _, c := range cands {
			key = itemset.AppendKey(key[:0], c)
			if err := tab.Insert(p, lineOf(c), key); err != nil {
				return nil, stats, err
			}
		}
		for _, t := range txns {
			itemset.Subsets(t, k, func(s itemset.Itemset) {
				if err == nil {
					key = itemset.AppendKey(key[:0], s)
					err = tab.Probe(p, lineOf(s), key)
				}
			})
			if err != nil {
				return nil, stats, err
			}
		}
		entries, err := tab.Collect(p, minCount)
		if err != nil {
			return nil, stats, err
		}
		addStats(&stats, tab.Stats())

		var large []itemset.Itemset
		for _, e := range entries {
			large = append(large, itemset.FromKey(e.Key))
			res.Support[e.Key] = int(e.Count)
		}
		sort.Slice(large, func(i, j int) bool { return large[i].Less(large[j]) })
		res.Passes = append(res.Passes, apriori.PassStats{K: k, Candidates: len(cands), Large: len(large)})
		res.Large = append(res.Large, large)
		if len(large) == 0 {
			break
		}
		prev = large
	}
	return res, stats, nil
}

// addStats folds one pass's table counters into the run total.
func addStats(total *memtable.Stats, s memtable.Stats) {
	total.Inserts += s.Inserts
	total.Probes += s.Probes
	total.Hits += s.Hits
	total.Pagefaults += s.Pagefaults
	total.Evictions += s.Evictions
	total.Updates += s.Updates
	total.FaultedTime += s.FaultedTime
	total.PeakBytes = max(total.PeakBytes, s.PeakBytes)
}
