package candtab

import "encoding/binary"

// Line is a flat candidate table for one hash line: an open-addressing index
// over arena-packed keys with structure-of-arrays counts.
//
// Layout (also diagrammed in DESIGN.md §10):
//
//	arena  []byte   key bytes, appended back to back in insertion order
//	ends   []uint32 entry i's key is arena[ends[i-1]:ends[i]] (ends[-1] = 0)
//	counts []int32  entry i's support count
//	slots  []int32  open-addressing index: hash slot -> entry id, -1 empty
//	fps    []byte   per-slot fingerprint (top hash byte), probe short-circuit
//
// A probe touches the slots/fps arrays (contiguous, cache-resident), compares
// one fingerprint byte, and only on a match reads the arena — no per-entry
// pointers, no per-probe allocation. Entries keep insertion order, so a line
// converts to and from the pager's []Entry representation byte-identically.
//
// The hash is a fixed-seed FNV-1a (the same family itemset.Hash uses), never
// a per-process randomized hash: identically-seeded runs must produce
// identical event streams, and a randomized table order would leak into
// eviction timing and the golden traces.
//
// The zero value is an empty, ready-to-use line.
type Line struct {
	arena  []byte
	ends   []uint32
	counts []int32
	slots  []int32
	fps    []byte
	mask   uint32
	// indexed counts how many leading entries are placed in slots. Inserts
	// only append; the first probe after an insert builds the index for the
	// whole backlog in one pass (sync), so a build-then-count phase pays one
	// bulk hash pass instead of per-insert incremental rehashing.
	indexed int32
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashBytes(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// NewLine returns a line pre-sized for about n entries. The slot index is
// not allocated up front: the first probe builds it at the right size.
func NewLine(n int) *Line {
	l := &Line{}
	l.Grow(n, 8*n)
	return l
}

// Grow pre-sizes the entry arrays for n more entries totalling keyBytes of
// key data (pager rebuilds know both exactly). It never allocates the slot
// index — a line that is rebuilt and evicted without being probed pays for
// no index at all.
func (l *Line) Grow(n, keyBytes int) {
	if n <= 0 {
		return
	}
	if cap(l.arena)-len(l.arena) < keyBytes {
		a := make([]byte, len(l.arena), len(l.arena)+keyBytes)
		copy(a, l.arena)
		l.arena = a
	}
	if cap(l.ends)-len(l.ends) < n {
		e := make([]uint32, len(l.ends), len(l.ends)+n)
		copy(e, l.ends)
		l.ends = e
	}
	if cap(l.counts)-len(l.counts) < n {
		c := make([]int32, len(l.counts), len(l.counts)+n)
		copy(c, l.counts)
		l.counts = c
	}
}

func (l *Line) resize(n int) {
	l.slots = make([]int32, n)
	for i := range l.slots {
		l.slots[i] = -1
	}
	l.fps = make([]byte, n)
	l.mask = uint32(n - 1)
}

// Len returns the number of entries (duplicate inserts included).
func (l *Line) Len() int { return len(l.counts) }

// keyStart returns where entry id's key begins in the arena.
func (l *Line) keyStart(id int32) uint32 {
	if id == 0 {
		return 0
	}
	return l.ends[id-1]
}

// KeyBytes returns entry id's key as a view into the arena (valid until the
// next insert).
func (l *Line) KeyBytes(id int) []byte {
	return l.arena[l.keyStart(int32(id)):l.ends[id]]
}

// Key returns entry id's key as a string (allocates; conversion paths only).
func (l *Line) Key(id int) string { return string(l.KeyBytes(id)) }

// Count returns entry id's count.
func (l *Line) Count(id int) int32 { return l.counts[id] }

// MemBytes returns the structure's approximate resident footprint.
func (l *Line) MemBytes() int64 {
	return int64(cap(l.arena)) + 4*int64(cap(l.ends)) + 4*int64(cap(l.counts)) +
		4*int64(cap(l.slots)) + int64(cap(l.fps))
}

// Insert appends a candidate with count 0, copying key into the arena.
// Duplicate keys are appended as separate entries (preserving the legacy
// per-line list semantics) but only the first occurrence is indexed, so
// probes always increment the first.
func (l *Line) Insert(key []byte) {
	l.arena = append(l.arena, key...)
	l.endEntry(0)
}

// InsertCount appends a candidate with an explicit count (rebuilding a line
// from pager entries).
func (l *Line) InsertCount(key string, count int32) {
	l.arena = append(l.arena, key...)
	l.endEntry(count)
}

// endEntry closes the entry whose key was just appended to the arena.
func (l *Line) endEntry(count int32) {
	l.ends = append(l.ends, uint32(len(l.arena)))
	l.counts = append(l.counts, count)
}

// sync brings the slot index up to date with the entry arrays. Appended-but-
// unindexed entries are placed in insertion order, so first-occurrence-wins
// duplicate semantics are identical to indexing eagerly on every insert.
func (l *Line) sync() {
	n := len(l.counts)
	if n*4 > len(l.slots)*3 {
		l.rehash() // resizes and re-places every entry
		return
	}
	for id := l.indexed; id < int32(n); id++ {
		l.place(hashBytes(l.KeyBytes(int(id))), id)
	}
	l.indexed = int32(n)
}

// place installs entry id at its hash's first free slot unless an equal key
// is already indexed (first occurrence wins).
func (l *Line) place(h uint64, id int32) {
	fp := byte(h >> 56)
	i := uint32(h) & l.mask
	for {
		other := l.slots[i]
		if other < 0 {
			l.slots[i] = id
			l.fps[i] = fp
			return
		}
		if l.fps[i] == fp && l.keyEq(other, l.KeyBytes(int(id))) {
			return // duplicate key: keep the first occurrence indexed
		}
		i = (i + 1) & l.mask
	}
}

// rehash doubles the slot table and re-places every entry in insertion order.
func (l *Line) rehash() {
	n := len(l.slots) * 2
	if n < 8 {
		n = 8
	}
	for n*3 < (len(l.counts)+1)*4 {
		n <<= 1
	}
	l.resize(n)
	for id := range l.counts {
		l.place(hashBytes(l.KeyBytes(id)), int32(id))
	}
	l.indexed = int32(len(l.counts))
}

func (l *Line) keyEq(id int32, key []byte) bool {
	return string(l.arena[l.keyStart(id):l.ends[id]]) == string(key) // no allocation
}

// AddBytes increments the first entry with the given key by delta and
// reports whether it was found. The hot probe of the counting phase: keys
// arrive in scratch buffers or packed blocks, and neither the probe nor a
// hit allocates.
func (l *Line) AddBytes(key []byte, delta int32) bool {
	if l.indexed != int32(len(l.counts)) {
		l.sync()
	}
	if len(l.slots) == 0 {
		return false
	}
	h := hashBytes(key)
	fp := byte(h >> 56)
	i := uint32(h) & l.mask
	for {
		id := l.slots[i]
		if id < 0 {
			return false
		}
		if l.fps[i] == fp && l.keyEq(id, key) {
			l.counts[id] += delta
			return true
		}
		i = (i + 1) & l.mask
	}
}

// Get returns the count of the first entry with the given key.
func (l *Line) Get(key []byte) (int32, bool) {
	if l.indexed != int32(len(l.counts)) {
		l.sync()
	}
	if len(l.slots) == 0 {
		return 0, false
	}
	h := hashBytes(key)
	fp := byte(h >> 56)
	i := uint32(h) & l.mask
	for {
		id := l.slots[i]
		if id < 0 {
			return 0, false
		}
		if l.fps[i] == fp && l.keyEq(id, key) {
			return l.counts[id], true
		}
		i = (i + 1) & l.mask
	}
}

// putItem writes one item in canonical key encoding (4 bytes little-endian,
// matching itemset.Key).
func putItem(b []byte, it int32) {
	binary.LittleEndian.PutUint32(b, uint32(it))
}
