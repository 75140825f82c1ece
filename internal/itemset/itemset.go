package itemset

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Item identifies a single catalog item.
type Item = int32

// Itemset is a canonically sorted, duplicate-free set of items.
type Itemset []Item

// New returns the canonical itemset of the given items (sorted,
// deduplicated). The input slice is not modified.
func New(items ...Item) Itemset {
	s := make(Itemset, len(items))
	copy(s, items)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// IsCanonical reports whether s is sorted strictly ascending.
func (s Itemset) IsCanonical() bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// Equal reports item-wise equality.
func (s Itemset) Equal(t Itemset) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Less orders itemsets lexicographically (shorter prefixes first).
func (s Itemset) Less(t Itemset) bool {
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	for i := 0; i < n; i++ {
		if s[i] != t[i] {
			return s[i] < t[i]
		}
	}
	return len(s) < len(t)
}

// ContainsAll reports whether s is a superset of t (both canonical).
func (s Itemset) ContainsAll(t Itemset) bool {
	i := 0
	for _, x := range t {
		for i < len(s) && s[i] < x {
			i++
		}
		if i >= len(s) || s[i] != x {
			return false
		}
		i++
	}
	return true
}

// Without returns a copy of s with the item at index i removed.
func (s Itemset) Without(i int) Itemset {
	out := make(Itemset, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

// Clone returns an independent copy.
func (s Itemset) Clone() Itemset {
	out := make(Itemset, len(s))
	copy(out, s)
	return out
}

// Key returns a compact byte-string key usable as a map key. Two itemsets
// have equal keys iff they are equal. It is string(AppendKey(nil, s)).
func (s Itemset) Key() string {
	var buf [32]byte // up to 8 items: the string is the one allocation
	dst := buf[:0]
	if n := KeyLen(len(s)); n > len(buf) {
		dst = make([]byte, 0, n)
	}
	return string(AppendKey(dst, s))
}

// AppendKey appends s's canonical key, 4 bytes per item little-endian (the
// bytes of Key), to dst and returns the extended slice. The counting phase
// writes keys into reused buffers with it instead of allocating one string
// per itemset.
func AppendKey(dst []byte, s Itemset) []byte {
	for _, it := range s {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(it))
	}
	return dst
}

// KeyLen is the length of a k-itemset's key: 4 bytes per item.
func KeyLen(k int) int { return 4 * k }

// FromKey reconstructs the itemset encoded by Key.
func FromKey(key string) Itemset {
	if len(key)%4 != 0 {
		panic("itemset: malformed key length")
	}
	s := make(Itemset, len(key)/4)
	for i := range s {
		s[i] = Item(binary.LittleEndian.Uint32([]byte(key[4*i : 4*i+4])))
	}
	return s
}

// Packed is a list of k-itemsets held as their keys (AppendKey's bytes,
// 4·k each) back to back in one arena: no Itemset and no allocation per
// itemset. AprioriGen returns its candidates in this form.
type Packed struct {
	K    int
	Keys []byte
}

// Pack packs k-itemsets in order.
func Pack(k int, sets []Itemset) Packed {
	p := Packed{K: k, Keys: make([]byte, 0, KeyLen(k)*len(sets))}
	for _, s := range sets {
		p.Keys = AppendKey(p.Keys, s)
	}
	return p
}

// Len returns the number of itemsets.
func (p Packed) Len() int {
	if p.K == 0 {
		return 0
	}
	return len(p.Keys) / KeyLen(p.K)
}

// Key returns itemset i's key, a view into the arena.
func (p Packed) Key(i int) []byte {
	n := KeyLen(p.K)
	return p.Keys[i*n : (i+1)*n : (i+1)*n]
}

// Itemsets decodes the list for consumers that need the []Itemset form; the
// itemsets share one backing array.
func (p Packed) Itemsets() []Itemset {
	items := make(Itemset, len(p.Keys)/4)
	for i := range items {
		items[i] = Item(binary.LittleEndian.Uint32(p.Keys[4*i:]))
	}
	out := make([]Itemset, p.Len())
	for i := range out {
		out[i] = items[i*p.K : (i+1)*p.K : (i+1)*p.K]
	}
	return out
}

// String renders the itemset as "{a,b,c}".
func (s Itemset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, it := range s {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", it)
	}
	sb.WriteByte('}')
	return sb.String()
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash returns a 64-bit FNV-1a hash of the canonical itemset. It is the
// hash used both for hash-line placement and for HPA's processor
// partitioning, as in the paper.
func (s Itemset) Hash() uint64 {
	var buf [32]byte // up to 8 items on the stack
	return HashKey(AppendKey(buf[:0], s))
}

// HashKey is Hash of the itemset whose key is key: FNV-1a over the key's
// bytes, which are each item's little-endian bytes in turn.
func HashKey(key []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range key {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// HashPair hashes the 2-itemset {a,b} without allocating. a must be < b.
func HashPair(a, b Item) uint64 { return Itemset{a, b}.Hash() }

// Pack2 packs a 2-itemset into a uint64 (a in the high word). a must be < b.
func Pack2(a, b Item) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// Unpack2 reverses Pack2.
func Unpack2(p uint64) (a, b Item) { return Item(p >> 32), Item(uint32(p)) }
