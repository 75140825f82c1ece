package candtab

import (
	"sort"

	"repro/internal/itemset"
)

// Table is a sequential pass-k counting kernel over one flat Line: the
// drop-in replacement for htree.Tree in the non-partitioned miner. All
// candidates live in a single Line; CountTransaction enumerates the k-subsets
// of a transaction into a reusable scratch key buffer and probes the line
// with zero allocations.
type Table struct {
	k       int
	line    *Line
	scratch []byte // k*4-byte canonical key under construction
	idx     []int  // combination indices for general k
}

// New builds a table over the candidate itemsets, which must all have size
// k ≥ 1 and be canonical.
func New(k int, candidates []itemset.Itemset) *Table {
	if k < 1 {
		panic("candtab: k must be >= 1")
	}
	t := &Table{
		k:       k,
		line:    NewLine(len(candidates)),
		scratch: make([]byte, itemset.KeyLen(k)),
		idx:     make([]int, k),
	}
	for _, c := range candidates {
		if len(c) != k {
			panic("candtab: candidate size mismatch")
		}
		t.line.Insert(itemset.AppendKey(t.scratch[:0], c))
	}
	return t
}

// Len returns the number of candidates stored.
func (t *Table) Len() int { return t.line.Len() }

// K returns the candidate size.
func (t *Table) K() int { return t.k }

// Count returns the count of candidate c, or 0 if absent.
func (t *Table) Count(c itemset.Itemset) int {
	n, _ := t.line.Get(itemset.AppendKey(t.scratch[:0], c))
	return int(n)
}

// CountTransaction increments the count of every stored candidate that is a
// subset of txn (a canonical itemset), each at most once per call. Distinct
// k-subsets of a canonical transaction are distinct itemsets, so each
// candidate is probed at most once — no per-transaction dedup mark needed.
func (t *Table) CountTransaction(txn itemset.Itemset) {
	if len(txn) < t.k {
		return
	}
	if t.k == 2 {
		// Pass-2 fast path: the dominant pass. Write each pair key in place.
		buf := t.scratch[:8]
		for i := 0; i < len(txn)-1; i++ {
			putItem(buf, txn[i])
			for j := i + 1; j < len(txn); j++ {
				putItem(buf[4:], txn[j])
				t.line.AddBytes(buf, 1)
			}
		}
		return
	}
	// General k: iterate index combinations, rewriting only the suffix of the
	// scratch key that changed.
	for i := range t.idx {
		t.idx[i] = i
		putItem(t.scratch[4*i:], txn[i])
	}
	for {
		t.line.AddBytes(t.scratch, 1)
		// Advance to the next combination.
		p := t.k - 1
		for p >= 0 && t.idx[p] == len(txn)-t.k+p {
			p--
		}
		if p < 0 {
			return
		}
		t.idx[p]++
		putItem(t.scratch[4*p:], txn[t.idx[p]])
		for q := p + 1; q < t.k; q++ {
			t.idx[q] = t.idx[q-1] + 1
			putItem(t.scratch[4*q:], txn[t.idx[q]])
		}
	}
}

// Frequent returns the itemsets whose count meets minCount, in lexicographic
// order, along with their counts keyed by canonical key. Signature-compatible
// with htree.Tree.Frequent.
func (t *Table) Frequent(minCount int) ([]itemset.Itemset, map[string]int) {
	var large []itemset.Itemset
	counts := make(map[string]int)
	for id := 0; id < t.line.Len(); id++ {
		if c := int(t.line.Count(id)); c >= minCount {
			key := t.line.Key(id)
			large = append(large, itemset.FromKey(key))
			counts[key] = c
		}
	}
	sort.Slice(large, func(i, j int) bool { return large[i].Less(large[j]) })
	return large, counts
}
