package memtable

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

func TestEvictionStrings(t *testing.T) {
	if LRU.String() != "lru" || FIFO.String() != "fifo" || Random.String() != "random" {
		t.Error("eviction strings wrong")
	}
	if Eviction(99).String() == "" {
		t.Error("unknown eviction empty string")
	}
}

func TestFIFOEvictsOldestDespiteUse(t *testing.T) {
	pager := newFakePager()
	tab, _ := New(Config{
		Lines: 3, LimitBytes: 2 * EntryMemBytes,
		Policy: SimpleSwap, Eviction: FIFO,
	}, pager)
	runInSim(t, func(p *sim.Proc) {
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(tab.Insert(p, 0, key(0)))
		must(tab.Insert(p, 1, key(1)))
		// Heavy use of line 0 must NOT protect it under FIFO.
		for i := 0; i < 5; i++ {
			must(tab.Probe(p, 0, key(0)))
		}
		must(tab.Insert(p, 2, key(2)))
		if tab.IsResident(0) {
			t.Error("FIFO kept the oldest line despite later arrival")
		}
		if !tab.IsResident(1) || !tab.IsResident(2) {
			t.Error("FIFO evicted the wrong line")
		}
	})
}

func TestLRUProtectsRecentlyUsed(t *testing.T) {
	pager := newFakePager()
	tab, _ := New(Config{
		Lines: 3, LimitBytes: 2 * EntryMemBytes,
		Policy: SimpleSwap, Eviction: LRU,
	}, pager)
	runInSim(t, func(p *sim.Proc) {
		tab.Insert(p, 0, key(0))
		tab.Insert(p, 1, key(1))
		tab.Probe(p, 0, key(0)) // line 1 becomes LRU
		tab.Insert(p, 2, key(2))
		if !tab.IsResident(0) || tab.IsResident(1) {
			t.Error("LRU did not protect the recently used line")
		}
	})
}

func TestRandomEvictionIsSeededAndValid(t *testing.T) {
	run := func(seed int64) []bool {
		pager := newFakePager()
		tab, _ := New(Config{
			Lines: 12, LimitBytes: 4 * EntryMemBytes,
			Policy: SimpleSwap, Eviction: Random, RandSeed: seed,
		}, pager)
		var layout []bool
		runInSim(t, func(p *sim.Proc) {
			for i := 0; i < 12; i++ {
				if err := tab.Insert(p, i, key(i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 12; i++ {
				layout = append(layout, tab.IsResident(i))
			}
		})
		return layout
	}
	a := run(1)
	b := run(1)
	c := run(2)
	same := func(x, y []bool) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("random eviction not deterministic for a seed")
	}
	if same(a, c) {
		t.Error("random eviction identical across seeds (suspicious)")
	}
	resident := 0
	for _, r := range a {
		if r {
			resident++
		}
	}
	if resident != 4 {
		t.Errorf("resident lines = %d, want 4 (limit)", resident)
	}
}

func TestAllEvictionPoliciesPreserveCounts(t *testing.T) {
	for _, ev := range []Eviction{LRU, FIFO, Random} {
		pager := newFakePager()
		tab, _ := New(Config{
			Lines: 30, LimitBytes: 8 * EntryMemBytes,
			Policy: SimpleSwap, Eviction: ev, RandSeed: 3,
		}, pager)
		rng := rand.New(rand.NewSource(9))
		oracle := map[string]int32{}
		runInSim(t, func(p *sim.Proc) {
			for i := 0; i < 30; i++ {
				if err := tab.Insert(p, i, key(i)); err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; step < 1200; step++ {
				li := rng.Intn(30)
				if err := tab.Probe(p, li, key(li)); err != nil {
					t.Fatal(err)
				}
				oracle[key(li)]++
			}
			entries, err := tab.Collect(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.Count != oracle[e.Key] {
					t.Errorf("%v: count(%s) = %d, oracle %d", ev, e.Key, e.Count, oracle[e.Key])
				}
			}
		})
		if tab.Stats().Evictions == 0 {
			t.Errorf("%v: no evictions exercised", ev)
		}
	}
}

func TestResidentIndexConsistency(t *testing.T) {
	// Fuzz the residency bookkeeping: after any operation sequence the
	// resident slice and the linked list must agree.
	pager := newFakePager()
	tab, _ := New(Config{
		Lines: 20, LimitBytes: 6 * EntryMemBytes,
		Policy: SimpleSwap, Eviction: Random, RandSeed: 11,
	}, pager)
	rng := rand.New(rand.NewSource(13))
	runInSim(t, func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			if err := tab.Insert(p, i, key(i)); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 600; step++ {
			li := rng.Intn(20)
			if err := tab.Probe(p, li, key(li)); err != nil {
				t.Fatal(err)
			}
			// Invariant: residentIdx content == lines whose header is
			// resident. Every line was inserted, so every line has one.
			resident := map[int32]bool{}
			for i := range tab.dir {
				l := tab.find(int32(i))
				if l == nil {
					t.Fatalf("step %d: inserted line %d has no header", step, i)
				}
				if l.state == stateResident {
					resident[int32(i)] = true
				}
			}
			if len(tab.residentIdx) != len(resident) {
				t.Fatalf("step %d: residentIdx %d entries, want %d",
					step, len(tab.residentIdx), len(resident))
			}
			for pos, li := range tab.residentIdx {
				if !resident[li] {
					t.Fatalf("step %d: residentIdx holds non-resident line %d", step, li)
				}
				if got := tab.find(li).pos; got != int32(pos) {
					t.Fatalf("step %d: line %d pos %d, want %d",
						step, li, got, pos)
				}
			}
		}
	})
}
