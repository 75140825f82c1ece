package memtable

import (
	"fmt"

	"repro/internal/transport"
)

// FallbackPager chains two pagers into a degraded-mode tier — the
// simulator's chain of remote memory and swap disk: store-outs go to Primary
// (remote memory) and divert to Secondary (disk) when Primary refuses or
// fails. (The TCP pager settles refusals itself and keeps its own disk
// tier, because its store-outs are acked only after StoreOut returns.) The
// Location convention routes later operations: the Primary places lines at
// Node >= 0, the Secondary at Node < 0, so FetchIn and Update dispatch on
// the location without extra bookkeeping.
//
// This is the recovery path from the paper's failure scenario: when a
// memory-available node dies, its client keeps mining with disk-speed
// swapping instead of hanging or corrupting counts.
type FallbackPager struct {
	Primary   Pager
	Secondary Pager

	fallbackStores uint64
}

// FallbackStores returns how many store-outs were diverted to Secondary.
func (f *FallbackPager) FallbackStores() uint64 { return f.fallbackStores }

// StoreOut tries Primary first and falls back to Secondary on error. With no
// Secondary configured the primary's error is surfaced as-is instead of
// panicking on the nil tier.
func (f *FallbackPager) StoreOut(p transport.Proc, line int, entries []Entry) (Location, error) {
	loc, err := f.Primary.StoreOut(p, line, entries)
	if err == nil {
		return loc, nil
	}
	if f.Secondary == nil {
		return Location{}, err
	}
	f.fallbackStores++
	return f.Secondary.StoreOut(p, line, entries)
}

// FetchIn routes by the location's tier.
func (f *FallbackPager) FetchIn(p transport.Proc, line int, loc Location) ([]Entry, error) {
	if loc.Node >= 0 {
		return f.Primary.FetchIn(p, line, loc)
	}
	if f.Secondary == nil {
		return nil, fmt.Errorf("memtable: line %d routed to the fallback tier, but none is configured", line)
	}
	return f.Secondary.FetchIn(p, line, loc)
}

// Update routes by the location's tier.
func (f *FallbackPager) Update(p transport.Proc, line int, loc Location, key string) error {
	if loc.Node >= 0 {
		return f.Primary.Update(p, line, loc, key)
	}
	if f.Secondary == nil {
		return fmt.Errorf("memtable: line %d routed to the fallback tier, but none is configured", line)
	}
	return f.Secondary.Update(p, line, loc, key)
}

// Reset purges both tiers (whichever of them support purging). Recovery must
// clear the disk tier too: spilled lines from the aborted pass would
// otherwise shadow the replay's fresh store-outs.
func (f *FallbackPager) Reset() error {
	var first error
	if r, ok := f.Primary.(Resetter); ok {
		first = r.Reset()
	}
	if r, ok := f.Secondary.(Resetter); ok {
		if err := r.Reset(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
