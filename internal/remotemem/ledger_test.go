package remotemem

import (
	"slices"
	"testing"

	"repro/internal/memtable"
)

// TestLedger: holder lists come back sorted whatever the map order, mirror
// bumps a kept shadow and is a no-op on a shadow-less record or an unknown
// line, and forget drops the whole record, taint included.
func TestLedger(t *testing.T) {
	l := ledger{}
	for _, line := range []int{42, 7, 19, 3, 25} {
		l[line] = &placement{holder: 1 + line%2}
	}
	if got, want := l.linesAt(1), []int{42}; !slices.Equal(got, want) {
		t.Errorf("linesAt(1) = %v, want %v", got, want)
	}
	if got, want := l.linesAt(2), []int{3, 7, 19, 25}; !slices.Equal(got, want) {
		t.Errorf("linesAt(2) = %v, want %v", got, want)
	}
	if got := l.linesAt(9); got != nil {
		t.Errorf("linesAt of an empty holder = %v, want none", got)
	}

	shipped := []memtable.Entry{{Key: "a", Count: 1}, {Key: "b", Count: 2}}
	l[5] = &placement{holder: 1, shadow: shadowCopy(shipped)}
	if pl := l.mirror(5, "b"); pl != l[5] || pl.shadow[1].Count != 3 {
		t.Errorf("mirror into a kept shadow: %+v", pl)
	}
	if shipped[1].Count != 2 {
		t.Error("mirror reached the shipped entries: the shadow aliases them")
	}
	if pl := l.mirror(42, "b"); pl != l[42] || pl.shadow != nil {
		t.Errorf("mirror on a shadow-less record: %+v", pl)
	}
	if pl := l.mirror(99, "b"); pl != nil {
		t.Errorf("mirror on an unknown line returned %+v", pl)
	}
	if shadowCopy(nil) == nil {
		t.Error("the shadow of an empty line reads as not kept")
	}

	l[5].tainted = true
	if pl := l.forget(5); pl == nil || !pl.tainted {
		t.Errorf("forget returned %+v, want the tainted record", pl)
	}
	if _, ok := l[5]; ok {
		t.Error("forget left the record behind")
	}
	if pl := l.forget(99); pl != nil {
		t.Errorf("forget of an unknown line returned %+v", pl)
	}
}
