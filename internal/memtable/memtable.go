package memtable

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/candtab"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Default cost accounting, matching §5.1 ("each candidate itemset occupies
// 24 bytes in total (structure area + data area)").
const (
	EntryMemBytes  = 24 // resident memory per candidate
	EntryWireBytes = 12 // serialized: packed items + count
	LineWireHeader = 16 // per-line message framing
)

// Policy selects how the counting phase treats swapped-out lines.
type Policy int

const (
	// SimpleSwap faults swapped-out lines back in on access (§4.3).
	SimpleSwap Policy = iota
	// RemoteUpdate pins swapped-out lines at their location and converts
	// accesses into one-way update messages (§4.4).
	RemoteUpdate
)

func (p Policy) String() string {
	switch p {
	case SimpleSwap:
		return "simple-swapping"
	case RemoteUpdate:
		return "remote-update"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Eviction selects the victim-selection policy. The paper uses LRU ("The
// hash line swapped out is selected using a LRU algorithm"); FIFO and Random
// exist for the ablation of that choice.
type Eviction int

const (
	// LRU evicts the least-recently-used resident line (the paper's choice).
	LRU Eviction = iota
	// FIFO evicts the line that became resident earliest, ignoring use.
	FIFO
	// Random evicts a uniformly random resident line.
	Random
)

func (e Eviction) String() string {
	switch e {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Eviction(%d)", int(e))
	}
}

// Location identifies where a swapped-out line lives: a memory-available
// node (Node ≥ 0) or a disk slot (Node < 0).
type Location struct {
	Node int
	Slot int
}

// Pager moves hash lines in and out of local memory. Implementations charge
// all virtual-time costs (network, service, disk) on the calling process.
type Pager interface {
	// StoreOut ships a line out and returns where it was placed: the
	// pager's first choice. A pager that settles stores after returning
	// (remotemem.TCPPager) may place the line elsewhere later and routes
	// by its own record, not by the Location it is handed back. The pager
	// may keep entries until the store settles; the caller must not modify
	// them.
	StoreOut(p transport.Proc, line int, entries []Entry) (Location, error)
	// FetchIn retrieves a previously stored line, releasing the remote/disk
	// copy.
	FetchIn(p transport.Proc, line int, loc Location) ([]Entry, error)
	// Update applies a one-way count increment for key at the stored line
	// (RemoteUpdate policy).
	Update(p transport.Proc, line int, loc Location, key string) error
}

// Swapped names one swapped-out line and where it lives.
type Swapped struct {
	Line int
	Loc  Location
}

// BulkFetcher is implemented by pagers that bring many swapped-out lines
// home in one sweep rather than one round trip per line. Collect uses it
// when the pager has it.
type BulkFetcher interface {
	// FetchAll retrieves the listed lines, releasing their remote/disk
	// copies, and hands each one's entries to got, in any order. It returns
	// the first line's failure; a line that failed is not handed to got.
	FetchAll(p transport.Proc, lines []Swapped, got func(line int, entries []Entry)) error
}

// Resetter is implemented by pagers that can discard every stored line at
// once. Recovery rolls an interrupted pass back and rebuilds its table from
// scratch, so lines the aborted attempt left in remote or disk storage must
// be purged rather than leak until the run ends.
type Resetter interface {
	Reset() error
}

// Stats are cumulative table counters.
type Stats struct {
	Inserts     uint64
	Probes      uint64
	Hits        uint64
	Pagefaults  uint64 // synchronous fetch-ins (faults)
	Evictions   uint64 // lines stored out
	Updates     uint64 // one-way remote updates
	PeakBytes   int64  // peak resident bytes
	OutLines    int    // currently swapped-out lines
	FaultedTime sim.Duration
}

// Config parameterizes a table.
type Config struct {
	Lines      int          // number of hash lines
	LimitBytes int64        // resident budget; 0 = unlimited
	Policy     Policy       // counting-phase behaviour for out lines
	Eviction   Eviction     // victim selection (default LRU, as in the paper)
	RandSeed   int64        // seed for the Random eviction policy
	ProbeCost  sim.Duration // CPU per probe (search + compare)
	InsertCost sim.Duration // CPU per insert (alloc + link)

	// Rec, when non-nil, receives KEviction/KPagefault/KUpdate events
	// attributed to Node. A nil Rec costs one pointer comparison per event
	// site.
	Rec  *trace.Recorder
	Node int
}

type lineState uint8

const (
	stateResident lineState = iota
	stateOut
)

// line is the header of one touched hash line. Headers live in the Table's
// slab and are made on a line's first use; a line that was never touched
// has none and behaves as a resident, empty line.
type line struct {
	// Resident entries live in a flat candidate table (candtab.Line): arena
	// keys + SoA counts + open-addressing index, embedded by value (the zero
	// value is an empty, ready-to-use line). The []Entry form exists only at
	// the pager boundary (StoreOut/FetchIn), where insertion order is
	// preserved so the wire image is byte-identical to the legacy slice
	// representation.
	flat  candtab.Line
	loc   Location
	bytes int64 // accounted bytes (valid in both states)
	// Residency-order intrusive list of line ids (LRU/FIFO victim
	// selection), kept only when the table has a limit.
	prev, next int32
	// Position in residentIdx (Random victim selection); -1 when the line is
	// not in the residency order.
	pos   int32
	state lineState
}

// slabChunk is the number of line headers allocated together. Chunks never
// move, so a header pointer stays valid while the slab grows.
const slabChunk = 1024

// Table is a node-local candidate hash table. It is used by a single
// simulation process at a time (as in the paper, one receiving process owns
// the table).
type Table struct {
	cfg Config
	// dir maps a line id to 1 + its header's slot in slab; 0 means the line
	// was never touched and has no header.
	dir   []int32
	slab  [][]line
	slots int32
	pager Pager

	resident int64
	stats    Stats
	outLines int // lines currently swapped out

	// Residency-order doubly linked list, kept only under a limit; head =
	// most recent (LRU) or most recently admitted (FIFO). tail is the victim
	// for both.
	head, tail int32
	// residentIdx lists resident line ids for O(1) Random victim selection.
	residentIdx []int32
	rng         *rand.Rand
}

// New creates a table. A pager is required iff LimitBytes > 0.
func New(cfg Config, pager Pager) (*Table, error) {
	if cfg.Lines < 1 {
		return nil, errors.New("memtable: need at least one line")
	}
	if cfg.LimitBytes > 0 && pager == nil {
		return nil, errors.New("memtable: memory limit set but no pager attached")
	}
	t := &Table{
		cfg: cfg, dir: make([]int32, cfg.Lines), pager: pager,
		head: -1, tail: -1,
	}
	if cfg.Eviction == Random {
		t.rng = rand.New(rand.NewSource(cfg.RandSeed + 1))
	}
	return t, nil
}

// Lines returns the number of hash lines.
func (t *Table) Lines() int { return len(t.dir) }

// find returns line i's header, or nil if the line was never touched.
func (t *Table) find(i int32) *line {
	s := t.dir[i] - 1
	if s < 0 {
		return nil
	}
	return &t.slab[s/slabChunk][s%slabChunk]
}

// header returns line i's header, making it on the line's first use.
func (t *Table) header(i int32) *line {
	if l := t.find(i); l != nil {
		return l
	}
	s := t.slots
	if s%slabChunk == 0 {
		// A table smaller than one chunk only ever needs one short chunk.
		t.slab = append(t.slab, make([]line, min(slabChunk, len(t.dir))))
	}
	t.slots++
	t.dir[i] = s + 1
	l := &t.slab[s/slabChunk][s%slabChunk]
	l.prev, l.next, l.pos = -1, -1, -1
	return l
}

// ResidentBytes returns current resident accounting.
func (t *Table) ResidentBytes() int64 { return t.resident }

// Stats returns a snapshot of the counters.
func (t *Table) Stats() Stats {
	s := t.stats
	s.OutLines = t.outLines
	return s
}

// --- LRU helpers ---

func (t *Table) lruRemove(i int32) {
	l := t.find(i)
	p := l.pos
	if p < 0 {
		return
	}
	// Slice bookkeeping for Random victim selection (swap-remove).
	last := t.residentIdx[len(t.residentIdx)-1]
	t.residentIdx[p] = last
	t.find(last).pos = p
	t.residentIdx = t.residentIdx[:len(t.residentIdx)-1]
	if l.prev >= 0 {
		t.find(l.prev).next = l.next
	} else {
		t.head = l.next
	}
	if l.next >= 0 {
		t.find(l.next).prev = l.prev
	} else {
		t.tail = l.prev
	}
	l.prev, l.next, l.pos = -1, -1, -1
}

// lruPushFront admits line i, which is not in the residency order, at its
// head.
func (t *Table) lruPushFront(i int32) {
	l := t.find(i)
	l.pos = int32(len(t.residentIdx))
	t.residentIdx = append(t.residentIdx, i)
	l.prev, l.next = -1, t.head
	if t.head >= 0 {
		t.find(t.head).prev = i
	}
	t.head = i
	if t.tail < 0 {
		t.tail = i
	}
}

// touch records a use of line i, whose header is l: admission to the
// residency structures is unconditional, but only LRU reorders on reuse (FIFO
// and Random ignore recency). Callers skip it on a table with no limit, which
// never evicts and so keeps no residency order.
func (t *Table) touch(i int32, l *line) {
	if l.pos < 0 {
		t.lruPushFront(i)
		return
	}
	if t.cfg.Eviction != LRU || t.head == i {
		return
	}
	t.lruRemove(i)
	t.lruPushFront(i)
}

// victim picks the next line to evict under the configured policy, or -1.
func (t *Table) victim(protect int32) int32 {
	switch t.cfg.Eviction {
	case Random:
		for tries := 0; tries < 8; tries++ {
			if len(t.residentIdx) == 0 {
				return -1
			}
			v := t.residentIdx[t.rng.Intn(len(t.residentIdx))]
			if v != protect {
				return v
			}
		}
		// Only the protected line (or pathological luck) remains; fall back
		// to the list tail logic below.
		fallthrough
	default: // LRU and FIFO both evict the list tail
		v := t.tail
		if v < 0 {
			return -1
		}
		if v == protect {
			return t.find(v).prev // may be -1
		}
		return v
	}
}

// --- residency management ---

// WouldOverflow reports whether adding extra bytes exceeds the limit.
func (t *Table) WouldOverflow(extra int64) bool {
	return t.cfg.LimitBytes > 0 && t.resident+extra > t.cfg.LimitBytes
}

// evictUntil swaps out LRU-last lines until resident+incoming fits, always
// keeping the protected line resident. It panics on pager errors becoming
// visible (callers translate via runMining error paths).
func (t *Table) evictUntil(p transport.Proc, incoming int64, protect int32) error {
	if t.cfg.LimitBytes == 0 {
		return nil
	}
	for t.resident+incoming > t.cfg.LimitBytes {
		victim := t.victim(protect)
		if victim < 0 {
			return nil // nothing evictable; allow transient overflow
		}
		if err := t.evict(p, victim); err != nil {
			return err
		}
	}
	return nil
}

func (t *Table) evict(p transport.Proc, i int32) error {
	l := t.find(i)
	if l.state != stateResident {
		return fmt.Errorf("memtable: evicting non-resident line %d", i)
	}
	start := p.Now()
	loc, err := t.pager.StoreOut(p, int(i), flatEntries(&l.flat))
	if err != nil {
		return fmt.Errorf("memtable: store-out of line %d: %w", i, err)
	}
	t.lruRemove(i)
	l.state = stateOut
	l.loc = loc
	l.flat = candtab.Line{}
	t.resident -= l.bytes
	t.outLines++
	t.stats.Evictions++
	if t.cfg.Rec.Wants(trace.KEviction) {
		t.cfg.Rec.Emit(trace.Event{
			At: start, Dur: p.Now().Sub(start), Node: t.cfg.Node,
			Kind: trace.KEviction, Line: int(i), Peer: loc.Node, Bytes: l.bytes,
		})
	}
	return nil
}

// fault brings swapped-out line i, whose header is l, resident (making room
// first).
func (t *Table) fault(p transport.Proc, i int32, l *line) error {
	start := p.Now()
	src := l.loc.Node
	if err := t.evictUntil(p, l.bytes, i); err != nil {
		return err
	}
	entries, err := t.pager.FetchIn(p, int(i), l.loc)
	if err != nil {
		return fmt.Errorf("memtable: fetch-in of line %d: %w", i, err)
	}
	l.state = stateResident
	l.flat = flatFromEntries(entries)
	l.bytes = int64(len(entries)) * EntryMemBytes
	t.resident += l.bytes
	t.outLines--
	t.lruPushFront(i)
	t.stats.Pagefaults++
	t.stats.FaultedTime += p.Now().Sub(start)
	if t.cfg.Rec.Wants(trace.KPagefault) {
		t.cfg.Rec.Emit(trace.Event{
			At: start, Dur: p.Now().Sub(start), Node: t.cfg.Node,
			Kind: trace.KPagefault, Line: int(i), Peer: src, Bytes: l.bytes,
		})
	}
	t.notePeak()
	return nil
}

func (t *Table) notePeak() {
	if t.resident > t.stats.PeakBytes {
		t.stats.PeakBytes = t.resident
	}
}

// Insert adds a candidate entry (count 0) to the given line during the
// build phase, copying key into the line's arena. Swapped-out lines are
// faulted back in regardless of policy (pinning applies only to the counting
// phase).
func (t *Table) Insert(p transport.Proc, lineID int, key []byte) error {
	if lineID < 0 || lineID >= len(t.dir) {
		return fmt.Errorf("memtable: line %d out of range", lineID)
	}
	i := int32(lineID)
	l := t.header(i)
	if l.state == stateOut {
		if err := t.fault(p, i, l); err != nil {
			return err
		}
	}
	p.Work(t.cfg.InsertCost)
	l.flat.Insert(key)
	l.bytes += EntryMemBytes
	t.resident += EntryMemBytes
	t.stats.Inserts++
	t.notePeak()
	if t.cfg.LimitBytes == 0 {
		return nil
	}
	t.touch(i, l)
	return t.evictUntil(p, 0, i)
}

// Probe looks up key in the given line during the counting phase and
// increments its count if present. Behaviour for swapped-out lines follows
// the configured policy: SimpleSwap faults the line in; RemoteUpdate sends a
// one-way update to the line's location. On a table with no limit, a probe of
// a line that holds no candidate is a plain miss. Under a limit it admits the
// line to the residency order like any other use. key is only read: a hit
// or a miss allocates nothing, and only a remote update copies it (into the
// string Pager.Update takes).
func (t *Table) Probe(p transport.Proc, lineID int, key []byte) error {
	if lineID < 0 || lineID >= len(t.dir) {
		return fmt.Errorf("memtable: line %d out of range", lineID)
	}
	i := int32(lineID)
	t.stats.Probes++
	if t.cfg.LimitBytes == 0 {
		p.Work(t.cfg.ProbeCost)
		if l := t.find(i); l != nil && l.flat.AddBytes(key, 1) {
			t.stats.Hits++
		}
		return nil
	}
	l := t.header(i)
	if l.state == stateOut {
		if t.cfg.Policy == RemoteUpdate {
			p.Work(t.cfg.ProbeCost)
			t.stats.Updates++
			if t.cfg.Rec.Wants(trace.KUpdate) {
				start := p.Now()
				err := t.pager.Update(p, lineID, l.loc, string(key))
				t.cfg.Rec.Emit(trace.Event{
					At: start, Dur: p.Now().Sub(start), Node: t.cfg.Node,
					Kind: trace.KUpdate, Line: lineID, Peer: l.loc.Node,
					Bytes: EntryWireBytes,
				})
				return err
			}
			return t.pager.Update(p, lineID, l.loc, string(key))
		}
		if err := t.fault(p, i, l); err != nil {
			return err
		}
	}
	p.Work(t.cfg.ProbeCost)
	if l.flat.AddBytes(key, 1) {
		t.stats.Hits++
	}
	t.touch(i, l)
	return nil
}

// Collect returns the table's entries whose count is at least minCount (0
// returns them all), in line order and insertion order within a line. It
// first faults in every swapped-out line (for RemoteUpdate lines this
// retrieves the remotely accumulated counts), in one sweep when the pager is
// a BulkFetcher and one fetch per line otherwise. It runs at the end of the
// counting phase; resident accounting may transiently exceed the limit since
// no further evictions are useful.
func (t *Table) Collect(p transport.Proc, minCount int) ([]Entry, error) {
	if bf, ok := t.pager.(BulkFetcher); ok && t.outLines > 0 {
		swapped := make([]Swapped, 0, t.outLines)
		for i := range t.dir {
			if l := t.find(int32(i)); l != nil && l.state == stateOut {
				swapped = append(swapped, Swapped{Line: i, Loc: l.loc})
			}
		}
		if err := bf.FetchAll(p, swapped, t.admit); err != nil {
			return nil, fmt.Errorf("memtable: collect: %w", err)
		}
	}
	var out []Entry
	for i := range t.dir {
		l := t.find(int32(i))
		if l == nil {
			continue
		}
		if l.state == stateOut {
			entries, err := t.pager.FetchIn(p, i, l.loc)
			if err != nil {
				return nil, fmt.Errorf("memtable: collect line %d: %w", i, err)
			}
			t.admit(i, entries)
		}
		for j := 0; j < l.flat.Len(); j++ {
			if c := l.flat.Count(j); int(c) >= minCount {
				out = append(out, Entry{Key: l.flat.Key(j), Count: c})
			}
		}
	}
	return out, nil
}

// admit makes a line Collect fetched resident, counting it as a pagefault.
func (t *Table) admit(i int, entries []Entry) {
	l := t.find(int32(i))
	if l == nil || l.state != stateOut {
		return
	}
	l.state = stateResident
	l.flat = flatFromEntries(entries)
	l.bytes = int64(len(entries)) * EntryMemBytes
	t.resident += l.bytes
	t.outLines--
	t.lruPushFront(int32(i))
	t.stats.Pagefaults++
}

// flatEntries converts a flat line to the pager's []Entry form, preserving
// insertion order. An empty line yields nil, matching the legacy nil-slice
// wire image.
func flatEntries(fl *candtab.Line) []Entry {
	if fl.Len() == 0 {
		return nil
	}
	out := make([]Entry, fl.Len())
	for i := range out {
		out[i] = Entry{Key: fl.Key(i), Count: fl.Count(i)}
	}
	return out
}

// flatFromEntries rebuilds a flat line from pager entries in order.
func flatFromEntries(entries []Entry) candtab.Line {
	var fl candtab.Line
	fl.Grow(len(entries), wireKeyBytes(entries))
	for _, e := range entries {
		fl.InsertCount(e.Key, e.Count)
	}
	return fl
}

// wireKeyBytes sums the key bytes of a pager entry slice (arena presizing).
func wireKeyBytes(entries []Entry) int {
	n := 0
	for _, e := range entries {
		n += len(e.Key)
	}
	return n
}

// Relocate updates the recorded location of a swapped-out line (used after
// migration moves stored lines between memory-available nodes).
func (t *Table) Relocate(lineID int, loc Location) error {
	if lineID < 0 || lineID >= len(t.dir) {
		return fmt.Errorf("memtable: line %d out of range", lineID)
	}
	l := t.find(int32(lineID))
	if l == nil || l.state != stateOut {
		return fmt.Errorf("memtable: relocating resident line %d", lineID)
	}
	l.loc = loc
	return nil
}

// OutLines returns the ids and locations of all currently swapped-out lines.
func (t *Table) OutLines() map[int]Location {
	out := make(map[int]Location, t.outLines)
	for i := range t.dir {
		if l := t.find(int32(i)); l != nil && l.state == stateOut {
			out[i] = l.loc
		}
	}
	return out
}

// LineBytes returns the accounted size of one line.
func (t *Table) LineBytes(lineID int) int64 {
	if l := t.find(int32(lineID)); l != nil {
		return l.bytes
	}
	return 0
}

// IsResident reports whether the line is currently in local memory.
func (t *Table) IsResident(lineID int) bool {
	l := t.find(int32(lineID))
	return l == nil || l.state == stateResident
}
