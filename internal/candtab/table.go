package candtab

import (
	"encoding/binary"
	"sort"

	"repro/internal/itemset"
)

// Table is the sequential pass-k counting kernel: the drop-in replacement
// for htree.Tree in the non-partitioned miner. It indexes the packed
// candidate keys in place with open addressing and keeps one count per
// candidate beside them:
//
//	keys   []byte  candidate i's key is keys[s·i : s·(i+1)], s = 4·k
//	counts []int32 candidate i's support count
//	slots  []int32 open-addressing index: hash slot -> 1 + candidate, 0 empty
//	fps    []byte  per-slot fingerprint (top hash byte), probe short-circuit
//
// A probe hashes the key (itemset.HashKey, fixed-seed FNV-1a), walks the contiguous slot and
// fingerprint arrays, and reads a key only on a fingerprint match.
type Table struct {
	k       int
	keys    []byte
	counts  []int32
	slots   []int32
	fps     []byte
	mask    uint32
	scratch []byte // k*4-byte canonical key under construction
	idx     []int  // combination indices for general k
}

// New builds a table over packed candidates (itemset.AprioriGen's output),
// canonical k-itemsets with k ≥ 1. The table indexes the packed keys in
// place: they are not copied, and the table never writes to them. The index
// is sized once, at most 3/4 full. A key that occurs twice is indexed at
// its first occurrence, which alone is counted.
func New(cands itemset.Packed) *Table {
	k := cands.K
	if k < 1 {
		panic("candtab: k must be >= 1")
	}
	n := 8
	for n*3 < cands.Len()*4 {
		n <<= 1
	}
	t := &Table{
		k:       k,
		keys:    cands.Keys,
		counts:  make([]int32, cands.Len()),
		slots:   make([]int32, n),
		fps:     make([]byte, n),
		mask:    uint32(n - 1),
		scratch: make([]byte, itemset.KeyLen(k)),
		idx:     make([]int, k),
	}
	for id := range t.counts {
		if i, fp, found := t.lookup(t.key(int32(id))); !found {
			t.slots[i], t.fps[i] = int32(id)+1, fp
		}
	}
	return t
}

// key returns candidate id's key.
func (t *Table) key(id int32) []byte {
	s := itemset.KeyLen(t.k)
	return t.keys[int(id)*s : int(id+1)*s]
}

// lookup returns the slot that indexes key, or else the empty slot where it
// would go, with the key's fingerprint.
func (t *Table) lookup(key []byte) (slot uint32, fp byte, found bool) {
	h := itemset.HashKey(key)
	fp = byte(h >> 56)
	for i := uint32(h) & t.mask; ; i = (i + 1) & t.mask {
		id := t.slots[i] - 1
		if id < 0 {
			return i, fp, false
		}
		if t.fps[i] == fp && string(t.key(id)) == string(key) { // no allocation
			return i, fp, true
		}
	}
}

// add counts one occurrence of key if it is a candidate.
func (t *Table) add(key []byte) {
	if i, _, found := t.lookup(key); found {
		t.counts[t.slots[i]-1]++
	}
}

// Count returns the count of candidate c, or 0 if absent.
func (t *Table) Count(c itemset.Itemset) int {
	if i, _, found := t.lookup(itemset.AppendKey(t.scratch[:0], c)); found {
		return int(t.counts[t.slots[i]-1])
	}
	return 0
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
			binary.LittleEndian.PutUint32(buf, uint32(txn[i]))
			for j := i + 1; j < len(txn); j++ {
				binary.LittleEndian.PutUint32(buf[4:], uint32(txn[j]))
				t.add(buf)
			}
		}
		return
	}
	// General k: iterate index combinations, rewriting only the suffix of the
	// scratch key that changed.
	for i := range t.idx {
		t.idx[i] = i
		binary.LittleEndian.PutUint32(t.scratch[4*i:], uint32(txn[i]))
	}
	for {
		t.add(t.scratch)
		// Advance to the next combination.
		p := t.k - 1
		for p >= 0 && t.idx[p] == len(txn)-t.k+p {
			p--
		}
		if p < 0 {
			return
		}
		t.idx[p]++
		binary.LittleEndian.PutUint32(t.scratch[4*p:], uint32(txn[t.idx[p]]))
		for q := p + 1; q < t.k; q++ {
			t.idx[q] = t.idx[q-1] + 1
			binary.LittleEndian.PutUint32(t.scratch[4*q:], uint32(txn[t.idx[q]]))
		}
	}
}

// Frequent returns the itemsets whose count meets minCount, in lexicographic
// order, along with their counts keyed by canonical key. Signature-compatible
// with htree.Tree.Frequent.
func (t *Table) Frequent(minCount int) ([]itemset.Itemset, map[string]int) {
	var large []itemset.Itemset
	counts := make(map[string]int)
	for id, c := range t.counts {
		if int(c) >= minCount {
			key := string(t.key(int32(id)))
			large = append(large, itemset.FromKey(key))
			counts[key] = int(c)
		}
	}
	sort.Slice(large, func(i, j int) bool { return large[i].Less(large[j]) })
	return large, counts
}
