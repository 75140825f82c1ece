package memtable

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/transport"
)

// TestNewAllocatesOnlyTheDirectory: a table's up-front cost is its line
// directory, 4 B per line; line headers come only with use. 400,000 lines is
// one node's share of the paper's 800,000 on a two-node fleet.
func TestNewAllocatesOnlyTheDirectory(t *testing.T) {
	const lines = 400_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab, err := New(Config{Lines: lines}, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(tab)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / lines; per > 5 {
		t.Errorf("New allocated %.2f B per line, want at most 5", per)
	}
}

// TestUnlimitedProbeAllocatesNothing: the counting phase's probe reads the
// key it is handed; neither a hit nor a miss on a populated line allocates.
func TestUnlimitedProbeAllocatesNothing(t *testing.T) {
	tab, _ := New(Config{Lines: 64}, nil)
	p := transport.NewRealProc()
	for i := 0; i < 4; i++ {
		if err := tab.Insert(p, 3, []byte(key(i))); err != nil {
			t.Fatal(err)
		}
	}
	hit, miss := []byte(key(2)), []byte(key(9))
	for _, c := range []struct {
		name string
		key  []byte
	}{{"hit", hit}, {"miss", miss}} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := tab.Probe(p, 3, c.key); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per probe, want 0", c.name, allocs)
		}
	}
	if s := tab.Stats(); s.Probes != 202 || s.Hits != 101 { // one warm-up call each
		t.Errorf("probes %d hits %d, want 202 and 101", s.Probes, s.Hits)
	}
}

// TestUnlimitedProbeOfUntouchedLine: with no limit nothing is evicted, so a
// probe of a line that holds no candidate is a plain miss that is counted
// and charged but allocates nothing.
func TestUnlimitedProbeOfUntouchedLine(t *testing.T) {
	const probeCost = 7 * sim.Microsecond
	tab, _ := New(Config{Lines: 64, ProbeCost: probeCost}, nil)
	runInSim(t, func(p *sim.Proc) {
		if err := tab.Insert(p, 3, []byte(key(3))); err != nil {
			t.Fatal(err)
		}
		k := []byte(key(5))
		start := p.Now()
		allocs := testing.AllocsPerRun(100, func() {
			if err := tab.Probe(p, 5, k); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("probe of an untouched line: %.1f allocs, want 0", allocs)
		}
		s := tab.Stats()
		if s.Probes != 101 || s.Hits != 0 { // AllocsPerRun adds one warm-up call
			t.Errorf("probes %d hits %d, want 101 and 0", s.Probes, s.Hits)
		}
		if got, want := p.Now().Sub(start), 101*probeCost; got != want {
			t.Errorf("charged %v, want %v", got, want)
		}
		if tab.find(5) != nil {
			t.Error("probe of an untouched line made a header")
		}
	})
}

// TestUntouchedLineAccessors: a line that was never touched answers as a
// resident, empty line.
func TestUntouchedLineAccessors(t *testing.T) {
	for _, limit := range []int64{0, 4 * EntryMemBytes} {
		tab, _ := New(Config{Lines: 16, LimitBytes: limit}, newFakePager())
		if !tab.IsResident(7) {
			t.Errorf("limit %d: untouched line not resident", limit)
		}
		if b := tab.LineBytes(7); b != 0 {
			t.Errorf("limit %d: untouched line has %d bytes", limit, b)
		}
		if err := tab.Relocate(7, Location{Node: 1}); err == nil {
			t.Errorf("limit %d: relocating an untouched line succeeded", limit)
		}
		if n := len(tab.OutLines()); n != 0 {
			t.Errorf("limit %d: %d out lines on a fresh table", limit, n)
		}
	}
}

// nilRecordingPager is a fakePager that records which store-outs carried a
// nil entry slice.
type nilRecordingPager struct {
	*fakePager
	order []int
	empty map[int]bool
}

func (r *nilRecordingPager) StoreOut(p transport.Proc, line int, entries []Entry) (Location, error) {
	r.order = append(r.order, line)
	r.empty[line] = entries == nil
	return r.fakePager.StoreOut(p, line, entries)
}

// TestLimitedProbeAdmitsEmptyLine pins the simulated model's behaviour under
// a limit: probing a line that holds no candidate admits that line to the
// residency order like any other use, so it is later stored out as an empty
// (nil) line and faulted back carrying nothing.
func TestLimitedProbeAdmitsEmptyLine(t *testing.T) {
	pager := &nilRecordingPager{fakePager: newFakePager(), empty: map[int]bool{}}
	tab, _ := New(Config{
		Lines: 4, LimitBytes: EntryMemBytes, Policy: SimpleSwap, Eviction: LRU,
	}, pager)
	runInSim(t, func(p *sim.Proc) {
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(tab.Insert(p, 0, []byte(key(0))))
		must(tab.Probe(p, 1, []byte(key(1)))) // line 1 holds nothing
		if l := tab.find(1); l == nil || l.pos < 0 {
			t.Fatal("probed empty line not admitted to the residency order")
		}
		must(tab.Probe(p, 0, []byte(key(0)))) // LRU order, oldest first: 1, 0
		must(tab.Insert(p, 2, []byte(key(2))))
		if len(pager.order) != 2 || pager.order[0] != 1 || pager.order[1] != 0 {
			t.Fatalf("store-out order %v, want [1 0]", pager.order)
		}
		if !pager.empty[1] || pager.empty[0] {
			t.Errorf("nil store-outs %v, want line 1 only", pager.empty)
		}
		if tab.IsResident(1) || tab.LineBytes(1) != 0 {
			t.Errorf("empty line 1: resident %v, %d bytes; want out with 0",
				tab.IsResident(1), tab.LineBytes(1))
		}
		must(tab.Probe(p, 1, []byte(key(1)))) // faulted back carrying nothing
	})
	s := tab.Stats()
	if s.Evictions < 2 || s.Pagefaults != 1 || s.Hits != 1 {
		t.Errorf("stats %+v", s)
	}
}

// TestOutLineCountMatchesOutLines drives a limited table with random
// Insert/Probe/Relocate/Collect steps under each eviction policy and swap
// policy, checking after every step that the O(1) Stats().OutLines counter
// agrees with a walk of the lines.
func TestOutLineCountMatchesOutLines(t *testing.T) {
	const lines = 24
	for _, policy := range []Policy{SimpleSwap, RemoteUpdate} {
		for _, ev := range []Eviction{LRU, FIFO, Random} {
			tab, _ := New(Config{
				Lines: lines, LimitBytes: 6 * EntryMemBytes,
				Policy: policy, Eviction: ev, RandSeed: 5,
			}, newFakePager())
			rng := rand.New(rand.NewSource(17))
			runInSim(t, func(p *sim.Proc) {
				for step := 0; step < 2000; step++ {
					li := rng.Intn(lines)
					var err error
					switch op := rng.Intn(20); {
					case op < 6:
						err = tab.Insert(p, li, []byte(key(step)))
					case op < 18:
						err = tab.Probe(p, li, []byte(key(rng.Intn(step+1))))
					case op < 19:
						if rerr := tab.Relocate(li, Location{Node: 9, Slot: li}); (rerr == nil) == tab.IsResident(li) {
							t.Fatalf("%v/%v step %d: Relocate(%d) = %v, resident %v",
								policy, ev, step, li, rerr, tab.IsResident(li))
						}
					default:
						_, err = tab.Collect(p, 0)
					}
					if err != nil {
						t.Fatalf("%v/%v step %d: %v", policy, ev, step, err)
					}
					if got, want := tab.Stats().OutLines, len(tab.OutLines()); got != want {
						t.Fatalf("%v/%v step %d: Stats().OutLines = %d, OutLines() has %d",
							policy, ev, step, got, want)
					}
				}
			})
			if tab.Stats().Evictions == 0 {
				t.Errorf("%v/%v: no evictions exercised", policy, ev)
			}
		}
	}
}
