package remotemem

import (
	"repro/internal/memtable"
	"repro/internal/sim"
)

// Message payloads on transport.PortMem (requests to a store) and
// transport.PortMemReply / transport.PortMon (replies and notifications back
// to application nodes).

// StoreMsg ships a hash line to a memory-available node (one-way; the
// client records the placement immediately, relying on reliable transport
// as TCP did on the pilot system).
type StoreMsg struct {
	Owner   int // application node id
	Line    int
	Entries []memtable.Entry
}

// FetchReq asks the store to return a line and release its copy. Seq is an
// owner-chosen request identifier echoed in the reply; it lets a client that
// re-issued a timed-out fetch discard a stale duplicate reply that was only
// delayed, not lost.
type FetchReq struct {
	Owner int
	Line  int
	Seq   uint64
}

// FetchReply returns a line's entries to its owner.
type FetchReply struct {
	Line    int
	Seq     uint64
	Entries []memtable.Entry
	// Err is a protocol-level failure description, empty on success.
	Err string
}

// UpdateMsg applies a one-way count increment for a pinned line (§4.4).
type UpdateMsg struct {
	Owner int
	Line  int
	Key   string
}

// MigrateCmd is the owner's "migration direction ... to tell to which node
// these entries should be migrated" (§4.2). The store transfers the listed
// lines to Dest and then notifies the owner with MigrateDone.
type MigrateCmd struct {
	Owner int
	Lines []int
	Dest  int
}

// MigrateBatch carries several migrated lines packed into one message block
// (migration is store-to-store bulk transfer, so lines need not be padded to
// a full block each the way single-line swap units are).
type MigrateBatch struct {
	Owner   int
	Lines   []int
	Entries [][]memtable.Entry
}

// MigrateDone tells the owner its lines now live at Dest.
type MigrateDone struct {
	From  int // store that migrated the lines away
	Dest  int
	Lines []int
}

// MemReport is the periodic availability broadcast from a monitor.
type MemReport struct {
	Node      int
	FreeBytes int64
}

// Wire sizes. Store/fetch-reply payloads travel as one message block each —
// "The unit of swapping operation is a hash line which could be contained in
// one message block" — so their wire size is the block size regardless of
// entry count (the paper's 0.3 ms transmission estimate assumes the full
// 4 KB block crosses the wire per pagefault).
const (
	reqWireBytes    = 64
	updateWireBytes = 48
	reportWireBytes = 32
	doneWireBytes   = 64
)

// lineWireBytes returns the wire size of a line-carrying message.
func lineWireBytes(blockSize, entries int) int {
	need := memtable.LineWireHeader + entries*memtable.EntryWireBytes
	if need < blockSize {
		return blockSize
	}
	return need
}

// migrateCmdWireBytes sizes a migration direction listing n lines.
func migrateCmdWireBytes(n int) int { return 32 + 4*n }

// Costs are the memory-available node service times, the calibration knobs
// of §5.2's pagefault cost decomposition ("The rest of time is considered to
// be swapping operations cost in memory available nodes").
type Costs struct {
	// StoreService is charged per stored line (allocate + write).
	StoreService sim.Duration
	// FetchService is charged per fetched line (search + read + release).
	FetchService sim.Duration
	// UpdateService is charged per one-way update (search + increment).
	UpdateService sim.Duration
	// MigrateService is charged per migrated line on top of the transfer.
	MigrateService sim.Duration
}

// DefaultCosts returns service times calibrated so that an unloaded
// pagefault costs ≈1.9 ms and a loaded one ≈2.4 ms, matching Table 4.
func DefaultCosts() Costs {
	return Costs{
		StoreService:   350 * sim.Microsecond,
		FetchService:   700 * sim.Microsecond,
		UpdateService:  25 * sim.Microsecond,
		MigrateService: 100 * sim.Microsecond,
	}
}
