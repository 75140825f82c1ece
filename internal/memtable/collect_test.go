package memtable

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/transport"
)

// bulkFakePager is a fakePager that also brings lines home in bulk, so a
// table's Collect takes its BulkFetcher path.
type bulkFakePager struct {
	*fakePager
	bulkCalls int
	bulkLines int
}

func (b *bulkFakePager) FetchAll(p transport.Proc, lines []Swapped, got func(int, []Entry)) error {
	b.bulkCalls++
	for _, sl := range lines {
		entries, err := b.FetchIn(p, sl.Line, sl.Loc)
		if err != nil {
			return err
		}
		b.bulkLines++
		got(sl.Line, entries)
	}
	return nil
}

// countedTable builds a remote-update table small enough to swap most of
// its lines out, then probes key i i%7 times.
func countedTable(t *testing.T, p *sim.Proc, pager Pager) *Table {
	t.Helper()
	tab, err := New(Config{Lines: 16, LimitBytes: 10 * EntryMemBytes, Policy: RemoteUpdate}, pager)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := tab.Insert(p, i%16, []byte(key(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		for j := 0; j < i%7; j++ {
			if err := tab.Probe(p, i%16, []byte(key(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tab
}

// TestCollectMinCount: Collect(p, minCount) returns exactly the entries of
// Collect(p, 0) whose count reaches minCount, in the same order, with the
// same counters — whether the pager fetches line by line or in bulk.
func TestCollectMinCount(t *testing.T) {
	for _, minCount := range []int{0, 1, 3, 6, 7} {
		runInSim(t, func(p *sim.Proc) {
			all, err := countedTable(t, p, newFakePager()).Collect(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			var want []Entry
			for _, e := range all {
				if int(e.Count) >= minCount {
					want = append(want, e)
				}
			}
			perLine := countedTable(t, p, newFakePager())
			bulk := &bulkFakePager{fakePager: newFakePager()}
			bulkTab := countedTable(t, p, bulk)
			outLines := len(bulkTab.OutLines())
			if outLines == 0 {
				t.Fatal("no line swapped out: the test exercises nothing")
			}
			for name, tab := range map[string]*Table{"per-line": perLine, "bulk": bulkTab} {
				got, err := tab.Collect(p, minCount)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s minCount %d: %d entries, want %d", name, minCount, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s minCount %d: entry %d = %+v, want %+v", name, minCount, i, got[i], want[i])
					}
				}
			}
			if ps, bs := perLine.Stats(), bulkTab.Stats(); ps != bs {
				t.Errorf("minCount %d: bulk stats %+v, per-line %+v", minCount, bs, ps)
			}
			if bulk.bulkCalls != 1 || bulk.bulkLines != outLines {
				t.Errorf("bulk pager: %d calls for %d lines, want 1 call for %d", bulk.bulkCalls, bulk.bulkLines, outLines)
			}
			if bulkTab.ResidentBytes() != perLine.ResidentBytes() {
				t.Errorf("resident bytes: bulk %d, per-line %d", bulkTab.ResidentBytes(), perLine.ResidentBytes())
			}
		})
	}
}
