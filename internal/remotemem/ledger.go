package remotemem

import (
	"sort"

	"repro/internal/memtable"
)

// placement is a pager's record of one line it swapped out: where the line
// is held, what it was charged, and the fault-tolerance state that lets the
// pager outlive its holder. The simulated Client and the TCPPager keep the
// same record; each applies its own rules for when a remote copy goes stale
// (a store revived after being declared dead, a connection that turned
// over).
type placement struct {
	holder int   // store node (Client) or fleet index (TCPPager)
	bytes  int64 // resident-accounting bytes shipped (Client)

	// shadow is a private copy of the entries shipped, with every update
	// the pager issues mirrored into it, so a line whose remote copy is
	// lost or stale can be rebuilt locally. It must be a copy: the shipped
	// slice may still be in flight (the simulated StoreMsg references it
	// until the store copies on receipt), and an update mutating a shared
	// array would be counted twice. nil when no shadow is kept.
	shadow []memtable.Entry
	// tainted marks a line whose remote copy missed updates: the shadow is
	// authoritative and the remote copy is never served.
	tainted bool

	epoch   uint64 // TCPPager: holder's ConnEpoch at the line's last remote write
	oneWay  bool   // TCPPager: that write was an unconfirmed one-way update frame
	pending bool   // TCPPager: in holder's store window, not yet accepted
}

// ledger is a pager's set of placed lines, keyed by line id.
type ledger map[int]*placement

// shadowCopy returns a private copy of entries to keep as a shadow. It is
// never nil, so an empty line's shadow still counts as kept.
func shadowCopy(entries []memtable.Entry) []memtable.Entry {
	return append(make([]memtable.Entry, 0, len(entries)), entries...)
}

// mirror applies one count increment to the line's shadow, when one is
// kept, and returns the line's record (nil for a line not placed).
func (l ledger) mirror(line int, key string) *placement {
	pl := l[line]
	if pl != nil {
		memtable.Increment(pl.shadow, key)
	}
	return pl
}

// linesAt returns the lines held by holder, sorted. The order is what makes
// migration deterministic: it decides which destination each line gets, so
// iterating the map directly would make placement — and in the simulator
// the whole event stream — vary between identically-seeded runs.
func (l ledger) linesAt(holder int) []int {
	var out []int
	for line, pl := range l {
		if pl.holder == holder {
			out = append(out, line)
		}
	}
	sort.Ints(out)
	return out
}

// forget drops the line's record — placement, shadow and taint together —
// and returns it (nil for a line not placed).
func (l ledger) forget(line int) *placement {
	pl := l[line]
	delete(l, line)
	return pl
}
