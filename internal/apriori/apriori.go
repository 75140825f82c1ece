package apriori

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/candtab"
	"repro/internal/htree"
	"repro/internal/itemset"
)

// Counting selects the support-counting backend.
type Counting int

const (
	// FlatTable counts by enumerating k-subsets of each transaction and
	// probing a flat open-addressing candidate table (internal/candtab) —
	// cache-friendly SoA layout, zero allocations per probe. The default.
	FlatTable Counting = iota
	// HashTree counts with the Agrawal & Srikant hash tree. Kept as the
	// reference implementation the flat kernel is property-tested against.
	HashTree
)

func (c Counting) String() string {
	switch c {
	case FlatTable:
		return "flat-table"
	case HashTree:
		return "hash-tree"
	default:
		return fmt.Sprintf("Counting(%d)", int(c))
	}
}

// Config parameterizes a mining run.
type Config struct {
	// MinSupport is the fractional minimum support in (0, 1].
	MinSupport float64
	// Counting selects the counting backend.
	Counting Counting
	// MaxPasses, when nonzero, caps the number of passes (0 = run to
	// completion). Useful for pass-2-focused experiments.
	MaxPasses int
}

// PassStats records one pass of the algorithm, matching the columns of the
// paper's Table 2.
type PassStats struct {
	K          int // itemset size of this pass
	Candidates int // |C_k|
	Large      int // |L_k|
}

// Result is the outcome of a mining run.
type Result struct {
	Passes []PassStats
	// Large[k] holds the large k-itemsets (index 0 unused).
	Large [][]itemset.Itemset
	// Support maps canonical itemset keys to absolute support counts for
	// every large itemset (all sizes).
	Support map[string]int
	// MinCount is the absolute support threshold applied.
	MinCount int
	// Transactions is the number of transactions scanned.
	Transactions int
}

// AllLarge returns every large itemset of size ≥ minK in lexicographic order
// within each size class.
func (r *Result) AllLarge(minK int) []itemset.Itemset {
	var out []itemset.Itemset
	for k := minK; k < len(r.Large); k++ {
		out = append(out, r.Large[k]...)
	}
	return out
}

// MinCount converts a fractional support into the absolute count threshold
// over n transactions, with a floor of 1.
func MinCount(minSupport float64, n int) int {
	c := int(minSupport * float64(n))
	if float64(c) < minSupport*float64(n) {
		c++ // ceil
	}
	if c < 1 {
		c = 1
	}
	return c
}

// Mine runs Apriori over the transactions.
func Mine(txns []itemset.Itemset, cfg Config) (*Result, error) {
	if cfg.MinSupport <= 0 || cfg.MinSupport > 1 {
		return nil, errors.New("apriori: MinSupport must be in (0,1]")
	}
	if len(txns) == 0 {
		return nil, errors.New("apriori: no transactions")
	}
	minCount := MinCount(cfg.MinSupport, len(txns))
	res := &Result{
		Large:        [][]itemset.Itemset{nil},
		Support:      make(map[string]int),
		MinCount:     minCount,
		Transactions: len(txns),
	}

	// Pass 1: count single items directly.
	itemCounts := make(map[itemset.Item]int)
	for _, t := range txns {
		for _, it := range t {
			itemCounts[it]++
		}
	}
	var l1 []itemset.Itemset
	for it, c := range itemCounts {
		if c >= minCount {
			is := itemset.Itemset{it}
			l1 = append(l1, is)
			res.Support[is.Key()] = c
		}
	}
	sortLex(l1)
	res.Large = append(res.Large, l1)
	res.Passes = append(res.Passes, PassStats{K: 1, Candidates: len(itemCounts), Large: len(l1)})

	for k := 2; ; k++ {
		if cfg.MaxPasses != 0 && k > cfg.MaxPasses {
			break
		}
		cands := itemset.AprioriGen(res.Large[k-1])
		if cands.Len() == 0 {
			res.Passes = append(res.Passes, PassStats{K: k})
			break
		}
		var large []itemset.Itemset
		var counts map[string]int
		if cfg.Counting == HashTree {
			large, counts = countHashTree(txns, cands.Itemsets(), k, minCount)
		} else {
			large, counts = countFlat(txns, cands, minCount)
		}
		res.Passes = append(res.Passes, PassStats{K: k, Candidates: cands.Len(), Large: len(large)})
		res.Large = append(res.Large, large)
		for key, c := range counts {
			res.Support[key] = c
		}
		if len(large) == 0 {
			break
		}
	}
	return res, nil
}

func countHashTree(txns, cands []itemset.Itemset, k, minCount int) ([]itemset.Itemset, map[string]int) {
	// Size the fanout to the candidate population: with F² (k=2) interior
	// buckets the expected leaf holds |C|/F^k entries, so F ≈ (|C|/leaf)^(1/k)
	// keeps leaf scans short even for the pass-2 explosion.
	const targetLeaf = 12
	fanout := 32
	if need := int(math.Pow(float64(len(cands))/targetLeaf, 1/float64(k))) + 1; need > fanout {
		fanout = need
	}
	tree := htree.New(k, cands, htree.WithFanout(fanout))
	for _, t := range txns {
		tree.CountTransaction(t)
	}
	return tree.Frequent(minCount)
}

func countFlat(txns []itemset.Itemset, cands itemset.Packed, minCount int) ([]itemset.Itemset, map[string]int) {
	tab := candtab.New(cands)
	for _, t := range txns {
		tab.CountTransaction(t)
	}
	return tab.Frequent(minCount)
}

// BruteForceSupport counts the exact support of each query itemset by
// scanning every transaction. O(|txns|·|queries|) — reference use only.
func BruteForceSupport(txns []itemset.Itemset, queries []itemset.Itemset) map[string]int {
	out := make(map[string]int, len(queries))
	for _, q := range queries {
		out[q.Key()] = 0
	}
	for _, t := range txns {
		for _, q := range queries {
			if t.ContainsAll(q) {
				out[q.Key()]++
			}
		}
	}
	return out
}

// BruteForceMine finds all large itemsets by exhaustive lattice search. Only
// feasible on tiny inputs; used to validate Mine in tests.
func BruteForceMine(txns []itemset.Itemset, minSupport float64) (*Result, error) {
	if len(txns) == 0 {
		return nil, errors.New("apriori: no transactions")
	}
	minCount := MinCount(minSupport, len(txns))
	res := &Result{
		Large:        [][]itemset.Itemset{nil},
		Support:      make(map[string]int),
		MinCount:     minCount,
		Transactions: len(txns),
	}
	// Universe of items present.
	universe := itemset.New()
	for _, t := range txns {
		universe = itemset.New(append(universe.Clone(), t...)...)
	}
	// Level-wise exhaustive: all k-subsets of the universe that are frequent.
	prev := []itemset.Itemset{{}}
	for k := 1; len(prev) > 0; k++ {
		seen := itemset.NewSet()
		var cands []itemset.Itemset
		for _, base := range prev {
			for _, it := range universe {
				if len(base) > 0 && it <= base[len(base)-1] {
					continue
				}
				c := itemset.New(append(base.Clone(), it)...)
				if len(c) == k && !seen.Has(c) {
					seen.Add(c)
					cands = append(cands, c)
				}
			}
		}
		sup := BruteForceSupport(txns, cands)
		var large []itemset.Itemset
		for _, c := range cands {
			if sup[c.Key()] >= minCount {
				large = append(large, c)
				res.Support[c.Key()] = sup[c.Key()]
			}
		}
		sortLex(large)
		res.Large = append(res.Large, large)
		res.Passes = append(res.Passes, PassStats{K: k, Candidates: len(cands), Large: len(large)})
		prev = large
	}
	return res, nil
}

func sortLex(s []itemset.Itemset) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Less(s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// SameLarge reports whether two results found exactly the same large
// itemsets with the same supports, and if not, describes the first
// difference.
func SameLarge(a, b *Result) (bool, string) {
	ka, kb := len(a.Large), len(b.Large)
	max := ka
	if kb > max {
		max = kb
	}
	for k := 1; k < max; k++ {
		var la, lb []itemset.Itemset
		if k < ka {
			la = a.Large[k]
		}
		if k < kb {
			lb = b.Large[k]
		}
		if len(la) != len(lb) {
			return false, fmt.Sprintf("pass %d: %d vs %d large itemsets", k, len(la), len(lb))
		}
		for i := range la {
			if !la[i].Equal(lb[i]) {
				return false, fmt.Sprintf("pass %d item %d: %v vs %v", k, i, la[i], lb[i])
			}
			if a.Support[la[i].Key()] != b.Support[lb[i].Key()] {
				return false, fmt.Sprintf("support of %v: %d vs %d",
					la[i], a.Support[la[i].Key()], b.Support[lb[i].Key()])
			}
		}
	}
	return true, ""
}
