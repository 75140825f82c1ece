package itemset

import (
	"encoding/binary"
	"sort"
)

// Set is a collection of itemsets indexed by canonical key, for membership
// checks.
type Set struct {
	m map[string]Itemset
}

// NewSet returns an empty Set.
func NewSet() *Set { return &Set{m: make(map[string]Itemset)} }

// Add inserts the itemset.
func (s *Set) Add(is Itemset) { s.m[is.Key()] = is }

// Has reports membership.
func (s *Set) Has(is Itemset) bool { _, ok := s.m[is.Key()]; return ok }

// Len returns the number of itemsets.
func (s *Set) Len() int { return len(s.m) }

// Slice returns the itemsets in deterministic (lexicographic) order.
func (s *Set) Slice() []Itemset {
	out := make([]Itemset, 0, len(s.m))
	for _, is := range s.m {
		out = append(out, is)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// AprioriGen implements the classic Apriori candidate generation: join the
// large (k-1)-itemsets with themselves on their first k-2 items, then prune
// any candidate with a (k-1)-subset that is not large. The input must contain
// only canonical itemsets all of size k-1; the output holds canonical
// candidates of size k in lexicographic order, packed: each candidate is
// joined straight into the output arena as its key, and a pruned one is cut
// off it again. Pruning writes each subset's key into one scratch buffer and
// looks it up in a set of L(k-1)'s keys, all substrings of one string, so a
// call allocates a fixed number of times whatever the number of checks.
func AprioriGen(large []Itemset) Packed {
	if len(large) == 0 {
		return Packed{}
	}
	k1 := len(large[0])
	sorted := append([]Itemset(nil), large...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })

	// The output arena is sized for every join, so it never regrows; from
	// k-1 = 1 no candidate is pruned and that size is exact.
	joins := 0
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && samePrefix(sorted[i], sorted[j], k1-1) {
			j++
		}
		joins += (j - i) * (j - i - 1) / 2
		i = j
	}
	out := Packed{K: k1 + 1, Keys: make([]byte, 0, KeyLen(k1+1)*joins)}
	var set map[string]struct{}
	var scratch []byte
	if k1 > 1 {
		all, stride := string(Pack(k1, sorted).Keys), KeyLen(k1)
		set = make(map[string]struct{}, len(sorted))
		for i := 0; i < len(all); i += stride {
			set[all[i:i+stride]] = struct{}{}
		}
		scratch = make([]byte, 0, stride)
	}
	for i := 0; i < len(sorted); i++ {
		a := sorted[i]
		for j := i + 1; j < len(sorted); j++ {
			b := sorted[j]
			if !samePrefix(a, b, k1-1) {
				break // sorted order: no further j shares the prefix
			}
			// Join: a ∪ {b[k1-1]}; since a.Less(b) and prefixes match,
			// b's last item is greater than a's last item.
			n := len(out.Keys)
			out.Keys = binary.LittleEndian.AppendUint32(AppendKey(out.Keys, a), uint32(b[k1-1]))
			if set != nil && prunable(out.Keys[n:], set, scratch) {
				out.Keys = out.Keys[:n]
			}
		}
	}
	return out
}

func samePrefix(a, b Itemset, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// prunable reports whether any (k-1)-subset of the candidate keyed cand is
// missing from large; dropping item i drops the key's bytes 4i..4i+3.
// Subsets formed by dropping the last two items need not be checked: they
// are prefixes of the two join parents, which are large by construction.
func prunable(cand []byte, large map[string]struct{}, scratch []byte) bool {
	for i := 0; i < len(cand)-8; i += 4 {
		scratch = append(append(scratch[:0], cand[:i]...), cand[i+4:]...)
		if _, ok := large[string(scratch)]; !ok {
			return true
		}
	}
	return false
}

// Subsets enumerates every k-subset of the transaction (canonical itemset)
// and calls fn with a reused scratch buffer; fn must copy if it retains the
// slice. It is the counting-phase primitive: each emitted subset is a
// potential candidate occurrence.
func Subsets(txn Itemset, k int, fn func(Itemset)) {
	if k <= 0 || k > len(txn) {
		return
	}
	idx := make([]int, k)
	buf := make(Itemset, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		for i, j := range idx {
			buf[i] = txn[j]
		}
		fn(buf)
		// Advance combination.
		i := k - 1
		for i >= 0 && idx[i] == len(txn)-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// CountSubsets returns C(len(txn), k) without enumerating.
func CountSubsets(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}
