package repro

import (
	"errors"
	"fmt"

	"repro/internal/itemset"
	"repro/internal/memtable"
	"repro/internal/oocmine"
	"repro/internal/remotemem"
	"repro/internal/rmtp"
	"repro/internal/rules"
)

// OOCConfig configures live out-of-core mining: Apriori under a hard local
// candidate-memory budget, spilling hash lines to real remote-memory servers
// over TCP (see cmd/rmserverd) or to a local spill file. This is the paper's
// mechanism running on real infrastructure rather than in the simulator.
type OOCConfig struct {
	MinSupport    float64
	MinConfidence float64 // 0 skips rule derivation
	// LimitBytes is the local candidate-memory budget (0 = unlimited).
	LimitBytes int64
	Policy     Policy
	// Servers are rmtp server addresses lines spill to (rotating).
	Servers []string
	// SpillFile, when non-empty and Servers is empty, spills to a local
	// file instead (the disk baseline).
	SpillFile string
	// HashLines is the hash-line count (default 4096).
	HashLines int
}

// OOCStats reports the swapping activity of an out-of-core run.
type OOCStats struct {
	Evictions     uint64
	Faults        uint64
	RemoteUpdates uint64
	PeakResident  int64
}

// MineOutOfCore mines the transactions with a bounded local memory budget,
// borrowing remote memory over TCP exactly as the paper's application
// execution nodes did. Results are identical to unconstrained mining.
func MineOutOfCore(cfg OOCConfig, transactions [][]int) (*Result, OOCStats, error) {
	var stats OOCStats
	if len(transactions) == 0 {
		return nil, stats, errors.New("repro: no transactions")
	}
	txns := make([]itemset.Itemset, len(transactions))
	for i, t := range transactions {
		items := make([]itemset.Item, len(t))
		for j, v := range t {
			items[j] = itemset.Item(v)
		}
		txns[i] = itemset.New(items...)
	}

	mcfg := oocmine.Config{
		MinSupport: cfg.MinSupport,
		LimitBytes: cfg.LimitBytes,
		Lines:      cfg.HashLines,
	}
	if cfg.Policy == RemoteUpdate {
		mcfg.Policy = memtable.RemoteUpdate
	}
	if cfg.LimitBytes > 0 {
		switch {
		case len(cfg.Servers) > 0:
			tp, err := remotemem.NewTCPPager("repro-ooc", cfg.Servers, rmtp.Options{})
			if err != nil {
				return nil, stats, err
			}
			defer tp.Close()
			mcfg.Pager = tp
		case cfg.SpillFile != "":
			fp, err := memtable.NewFilePager(cfg.SpillFile)
			if err != nil {
				return nil, stats, err
			}
			defer fp.Close()
			mcfg.Pager = fp
		default:
			return nil, stats, errors.New("repro: LimitBytes set but no Servers or SpillFile")
		}
	}

	ares, mstats, err := oocmine.Mine(txns, mcfg)
	if err != nil {
		return nil, stats, fmt.Errorf("repro: out-of-core mining: %w", err)
	}
	stats = OOCStats{
		Evictions:     mstats.Evictions,
		Faults:        mstats.Pagefaults,
		RemoteUpdates: mstats.Updates,
		PeakResident:  mstats.PeakBytes,
	}

	out := &Result{
		MinCount:     ares.MinCount,
		Transactions: ares.Transactions,
	}
	for _, ps := range ares.Passes {
		out.Passes = append(out.Passes, PassStats{K: ps.K, Candidates: ps.Candidates, Large: ps.Large})
	}
	for k := 1; k < len(ares.Large); k++ {
		for _, is := range ares.Large[k] {
			out.LargeItemsets = append(out.LargeItemsets, FrequentItemset{
				Items:   toInts(is),
				Support: ares.Support[is.Key()],
			})
		}
	}
	if cfg.MinConfidence > 0 {
		rs, err := rules.Derive(ares, cfg.MinConfidence)
		if err != nil {
			return nil, stats, err
		}
		for _, r := range rs {
			out.Rules = append(out.Rules, Rule{
				Antecedent: toInts(r.Antecedent),
				Consequent: toInts(r.Consequent),
				Support:    r.Support,
				Confidence: r.Confidence,
				Lift:       r.Lift,
			})
		}
	}
	return out, stats, nil
}

// StartMemoryServer starts an rmtp remote-memory server on addr (use
// "127.0.0.1:0" for an ephemeral port) lending capacity bytes, and returns
// its bound address and a closer. It is the embedded form of cmd/rmserverd.
func StartMemoryServer(addr string, capacity int64) (boundAddr string, closer func() error, err error) {
	srv := rmtp.NewServer(capacity)
	if err := srv.Listen(addr); err != nil {
		return "", nil, err
	}
	return srv.Addr(), srv.Close, nil
}
