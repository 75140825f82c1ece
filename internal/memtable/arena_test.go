package memtable

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/itemset"
	"repro/internal/sim"
	"repro/internal/transport"
)

// arenaCand is one candidate as its owning node's table sees it.
type arenaCand struct {
	line int
	key  []byte
}

// fleetSwapCands is node 0's share of a fleet-swap-shaped pass 2: every pair
// of 708 items placed on 800,000 global lines by the FNV pair hash, kept
// where the line is even, on 400,000 local lines. That is about 125,000
// candidates on about 107,000 touched lines.
func fleetSwapCands() []arenaCand {
	var out []arenaCand
	for a := itemset.Item(0); a < 708; a++ {
		for b := a + 1; b < 708; b++ {
			if line := itemset.HashPair(a, b) % 800_000; line%2 == 0 {
				out = append(out, arenaCand{int(line / 2), itemset.AppendKey(nil, itemset.Itemset{a, b})})
			}
		}
	}
	return out
}

// build fills tab with cands through Build, as HPA does.
func build(t testing.TB, p transport.Proc, tab *Table, cands []arenaCand) {
	err := tab.Build(p, len(cands), func(i int) (int, []byte) { return cands[i].line, cands[i].key })
	if err != nil {
		t.Fatal(err)
	}
}

// buildReserved builds an unlimited 400,000-line table from cands.
func buildReserved(t testing.TB, p transport.Proc, cands []arenaCand) *Table {
	tab, err := New(Config{Lines: 400_000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	build(t, p, tab, cands)
	return tab
}

// TestReservedBuildMemory: a fleet-swap-shaped pass-2 table, line directory
// included, costs at most 64 B per candidate, and its build allocates the
// same number of times when the touched lines double.
func TestReservedBuildMemory(t *testing.T) {
	cands := fleetSwapCands()
	if len(cands) < 120_000 || len(cands) > 130_000 {
		t.Fatalf("%d candidates, want about 125,000", len(cands))
	}
	p := transport.NewRealProc()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tab := buildReserved(t, p, cands)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if per := float64(after.HeapAlloc-before.HeapAlloc) / float64(len(cands)); per > 64 {
		t.Errorf("table holds %.1f B per candidate, want at most 64", per)
	}
	for _, c := range cands[:100] {
		if err := tab.Probe(p, c.line, c.key); err != nil {
			t.Fatal(err)
		}
	}
	if h := tab.Stats().Hits; h != 100 {
		t.Errorf("%d hits after 100 probes of held keys", h)
	}
	runtime.KeepAlive(tab)

	// With the collector off, the runtime's own per-cycle allocations do not
	// blur the count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	half := cands[:len(cands)/2]
	small := testing.AllocsPerRun(3, func() { buildReserved(t, p, half) })
	full := testing.AllocsPerRun(3, func() { buildReserved(t, p, cands) })
	if full > small {
		t.Errorf("build allocates %.0f times for %d candidates but %.0f for %d", full, len(cands), small, len(half))
	}
}

// TestArenaFollowsTheLimit: under a small limit a range follows the entries
// its line holds, a stored-out line gives its range up, and a full arena
// that is half given-up ranges is compacted rather than grown. So through
// the build and thousands of evict/fault cycles after it the arena stays
// within 8 times the peak modelled resident entries: a range holds at most
// twice its line's entries, and the arena grows only while more than half
// of it is held ranges, so to at most about four times those. That holds
// for lines of 1 to 3 entries, as in HPA's pass 2, and of 1 to 400, as in
// oocmine's default 4,096-line tables.
func TestArenaFollowsTheLimit(t *testing.T) {
	for _, c := range []struct{ lines, maxEntries, limitEntries int }{
		{2000, 3, 100},
		{300, 400, 3000},
	} {
		rng := rand.New(rand.NewSource(23))
		var cands []arenaCand
		for li := 0; li < c.lines; li++ {
			for e := rng.Intn(c.maxEntries); e >= 0; e-- {
				cands = append(cands, arenaCand{li, []byte(fmt.Sprintf("key-%06d", len(cands)))})
			}
		}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		tab, _ := New(Config{
			Lines: c.lines, LimitBytes: int64(c.limitEntries) * EntryMemBytes, Policy: SimpleSwap,
		}, newFakePager())
		maxRecords := 0
		runInSim(t, func(p *sim.Proc) {
			err := tab.Build(p, len(cands), func(i int) (int, []byte) {
				maxRecords = max(maxRecords, cap(tab.arena)/tab.rec())
				return cands[i].line, cands[i].key
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20_000; i++ {
				c := cands[rng.Intn(len(cands))]
				if err := tab.Probe(p, c.line, c.key); err != nil {
					t.Fatal(err)
				}
				maxRecords = max(maxRecords, cap(tab.arena)/tab.rec())
			}
		})
		s := tab.Stats()
		if s.Pagefaults < 5_000 {
			t.Fatalf("%d lines: only %d pagefaults: the walk does not cycle lines", c.lines, s.Pagefaults)
		}
		if peak := int(s.PeakBytes / EntryMemBytes); maxRecords > 8*peak {
			t.Errorf("%d lines of up to %d entries: arena held %d records, peak resident %d entries",
				c.lines, c.maxEntries, maxRecords, peak)
		}
	}
}

// modelLine is one line of the map-based model: entries in insertion order.
type modelLine []Entry

// TestTableMatchesModel walks a table through random Insert, Probe,
// Relocate and Collect steps, with and without a limit and with and without
// a Build of random candidates first (later Inserts then overrun what the
// Build counted for a line), and checks every Collect against a model where
// duplicates are kept and a probe counts the first occurrence of its key.
func TestTableMatchesModel(t *testing.T) {
	const lines = 16
	for _, c := range []struct {
		limit  int64
		policy Policy
		build  bool
	}{
		{0, SimpleSwap, false}, {0, SimpleSwap, true},
		{5 * EntryMemBytes, SimpleSwap, false}, {5 * EntryMemBytes, SimpleSwap, true},
		{5 * EntryMemBytes, RemoteUpdate, false}, {5 * EntryMemBytes, RemoteUpdate, true},
	} {
		name := fmt.Sprintf("limit %d %v build %v", c.limit, c.policy, c.build)
		tab, _ := New(Config{Lines: lines, LimitBytes: c.limit, Policy: c.policy}, newFakePager())
		rng := rand.New(rand.NewSource(31))
		model := make([]modelLine, lines)
		check := func(step int, got []Entry) {
			var want []Entry
			for _, ml := range model {
				want = append(want, ml...)
			}
			if len(got) != len(want) {
				t.Fatalf("%s step %d: %d entries, model has %d", name, step, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s step %d: entry %d = %+v, model %+v", name, step, i, got[i], want[i])
				}
			}
		}
		runInSim(t, func(p *sim.Proc) {
			if c.build {
				var cands []arenaCand
				for i := 0; i < 40; i++ {
					li, k := rng.Intn(lines), key(rng.Intn(24))
					cands = append(cands, arenaCand{li, []byte(k)})
					model[li] = append(model[li], Entry{Key: k})
				}
				build(t, p, tab, cands)
			}
			for step := 0; step < 3000; step++ {
				li := rng.Intn(lines)
				k := key(rng.Intn(24)) // a small pool: lines hold duplicates
				var err error
				switch op := rng.Intn(20); {
				case op < 5:
					err = tab.Insert(p, li, []byte(k))
					model[li] = append(model[li], Entry{Key: k})
				case op < 18:
					err = tab.Probe(p, li, []byte(k))
					for j := range model[li] {
						if model[li][j].Key == k {
							model[li][j].Count++
							break
						}
					}
				case op < 19:
					if !tab.IsResident(li) {
						err = tab.Relocate(li, Location{Node: 9, Slot: li})
					}
				default:
					var got []Entry
					got, err = tab.Collect(p, 0)
					check(step, got)
				}
				if err != nil {
					t.Fatalf("%s step %d: %v", name, step, err)
				}
				if got, want := tab.LineBytes(li), int64(len(model[li]))*EntryMemBytes; got != want {
					t.Fatalf("%s step %d: line %d accounts %d bytes, model %d", name, step, li, got, want)
				}
			}
			got, err := tab.Collect(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			check(3000, got)
		})
	}
}

// TestKeyLengthIsFixed: a table's keys all have the first key's length.
func TestKeyLengthIsFixed(t *testing.T) {
	tab, _ := New(Config{Lines: 4}, nil)
	p := transport.NewRealProc()
	if err := tab.Insert(p, 0, []byte("12345678")); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(p, 1, []byte("1234")); err == nil {
		t.Error("a 4-byte key went into a table of 8-byte keys")
	}
	if err := tab.Build(p, 1, func(int) (int, []byte) { return 2, []byte("12345678") }); err == nil {
		t.Error("Build after the first Insert succeeded")
	}
}
