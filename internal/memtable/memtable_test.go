package memtable

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/transport"
)

// fakePager stores lines in memory with optional per-op latency, emulating a
// remote store (including remote-update increments) without a network.
type fakePager struct {
	stored   map[int][]Entry
	latency  sim.Duration
	stores   int
	fetches  int
	updates  int
	failNext bool
}

func newFakePager() *fakePager { return &fakePager{stored: map[int][]Entry{}} }

func (f *fakePager) StoreOut(p transport.Proc, line int, entries []Entry) (Location, error) {
	if f.failNext {
		f.failNext = false
		return Location{}, fmt.Errorf("injected store failure")
	}
	p.Sleep(f.latency)
	cp := make([]Entry, len(entries))
	copy(cp, entries)
	f.stored[line] = cp
	f.stores++
	return Location{Node: 9, Slot: line}, nil
}

func (f *fakePager) FetchIn(p transport.Proc, line int, loc Location) ([]Entry, error) {
	p.Sleep(f.latency)
	entries, ok := f.stored[line]
	if !ok {
		return nil, fmt.Errorf("line %d not stored", line)
	}
	delete(f.stored, line)
	f.fetches++
	return entries, nil
}

func (f *fakePager) Update(p transport.Proc, line int, loc Location, key string) error {
	p.Sleep(f.latency)
	f.updates++
	for i := range f.stored[line] {
		if f.stored[line][i].Key == key {
			f.stored[line][i].Count++
			break
		}
	}
	return nil
}

// runInSim runs body as a single simulation process and returns final time.
func runInSim(t *testing.T, body func(p *sim.Proc)) sim.Time {
	t.Helper()
	k := sim.NewKernel()
	k.Go("test", body)
	return k.Run()
}

func key(i int) string { return fmt.Sprintf("key-%04d", i) }

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Lines: 0}, nil); err == nil {
		t.Error("zero lines accepted")
	}
	if _, err := New(Config{Lines: 4, LimitBytes: 100}, nil); err == nil {
		t.Error("limit without pager accepted")
	}
	if _, err := New(Config{Lines: 4}, nil); err != nil {
		t.Errorf("unlimited table without pager rejected: %v", err)
	}
}

func TestInsertAndProbeUnlimited(t *testing.T) {
	tab, _ := New(Config{Lines: 8}, nil)
	runInSim(t, func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			if err := tab.Insert(p, i%8, []byte(key(i))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			for j := 0; j < i; j++ { // key i probed i times
				if err := tab.Probe(p, i%8, []byte(key(i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		entries, err := tab.Collect(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int32{}
		for _, e := range entries {
			counts[e.Key] = e.Count
		}
		for i := 0; i < 20; i++ {
			if counts[key(i)] != int32(i) {
				t.Errorf("count(%s) = %d, want %d", key(i), counts[key(i)], i)
			}
		}
	})
	if tab.ResidentBytes() != 20*EntryMemBytes {
		t.Errorf("resident = %d, want %d", tab.ResidentBytes(), 20*EntryMemBytes)
	}
	s := tab.Stats()
	if s.Inserts != 20 || s.Pagefaults != 0 || s.Evictions != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLimitTriggersEvictionAndFaults(t *testing.T) {
	pager := newFakePager()
	// 4 lines, limit = 3 entries worth of bytes.
	tab, _ := New(Config{Lines: 4, LimitBytes: 3 * EntryMemBytes, Policy: SimpleSwap}, pager)
	runInSim(t, func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			if err := tab.Insert(p, i, []byte(key(i))); err != nil {
				t.Fatal(err)
			}
		}
		if tab.ResidentBytes() > 3*EntryMemBytes {
			t.Errorf("resident %d exceeds limit", tab.ResidentBytes())
		}
		if tab.Stats().Evictions == 0 {
			t.Error("no evictions despite overflow")
		}
		// Line 0 was LRU-evicted; probing it must fault.
		before := tab.Stats().Pagefaults
		if err := tab.Probe(p, 0, []byte(key(0))); err != nil {
			t.Fatal(err)
		}
		if tab.Stats().Pagefaults != before+1 {
			t.Error("probe of evicted line did not fault")
		}
		entries, err := tab.Collect(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int32{}
		for _, e := range entries {
			counts[e.Key] = e.Count
		}
		if counts[key(0)] != 1 {
			t.Errorf("count after faulting probe = %d, want 1", counts[key(0)])
		}
	})
}

func TestLRUOrderEviction(t *testing.T) {
	pager := newFakePager()
	tab, _ := New(Config{Lines: 3, LimitBytes: 2 * EntryMemBytes, Policy: SimpleSwap}, pager)
	runInSim(t, func(p *sim.Proc) {
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(tab.Insert(p, 0, []byte(key(0))))
		must(tab.Insert(p, 1, []byte(key(1))))
		// Touch line 0 so line 1 becomes LRU.
		must(tab.Probe(p, 0, []byte(key(0))))
		// Inserting line 2 must evict line 1 (LRU), not line 0.
		must(tab.Insert(p, 2, []byte(key(2))))
		if !tab.IsResident(0) || tab.IsResident(1) || !tab.IsResident(2) {
			t.Errorf("LRU eviction picked wrong victim: resident = %v %v %v",
				tab.IsResident(0), tab.IsResident(1), tab.IsResident(2))
		}
	})
}

func TestRemoteUpdatePolicyPinsLines(t *testing.T) {
	pager := newFakePager()
	tab, _ := New(Config{Lines: 2, LimitBytes: 1 * EntryMemBytes, Policy: RemoteUpdate}, pager)
	runInSim(t, func(p *sim.Proc) {
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(tab.Insert(p, 0, []byte(key(0))))
		must(tab.Insert(p, 1, []byte(key(1)))) // evicts line 0
		if tab.IsResident(0) {
			t.Fatal("line 0 should be out")
		}
		faultsBefore := tab.Stats().Pagefaults
		for i := 0; i < 5; i++ {
			must(tab.Probe(p, 0, []byte(key(0))))
		}
		s := tab.Stats()
		if s.Pagefaults != faultsBefore {
			t.Error("remote-update policy faulted a pinned line")
		}
		if s.Updates != 5 {
			t.Errorf("updates = %d, want 5", s.Updates)
		}
		if pager.updates != 5 {
			t.Errorf("pager saw %d updates, want 5", pager.updates)
		}
		// Collect must retrieve the remotely accumulated count.
		entries, err := tab.Collect(p, 0)
		must(err)
		counts := map[string]int32{}
		for _, e := range entries {
			counts[e.Key] = e.Count
		}
		if counts[key(0)] != 5 {
			t.Errorf("remote count = %d, want 5", counts[key(0)])
		}
	})
}

func TestProbeMissIsNotCounted(t *testing.T) {
	tab, _ := New(Config{Lines: 2}, nil)
	runInSim(t, func(p *sim.Proc) {
		if err := tab.Insert(p, 0, []byte(key(0))); err != nil {
			t.Fatal(err)
		}
		if err := tab.Probe(p, 0, []byte("absent")); err != nil {
			t.Fatal(err)
		}
		entries, _ := tab.Collect(p, 0)
		if len(entries) != 1 || entries[0].Count != 0 {
			t.Errorf("miss mutated table: %+v", entries)
		}
		s := tab.Stats()
		if s.Probes != 1 || s.Hits != 0 {
			t.Errorf("stats = %+v", s)
		}
	})
}

func TestRelocate(t *testing.T) {
	pager := newFakePager()
	tab, _ := New(Config{Lines: 2, LimitBytes: 1 * EntryMemBytes, Policy: RemoteUpdate}, pager)
	runInSim(t, func(p *sim.Proc) {
		tab.Insert(p, 0, []byte(key(0)))
		tab.Insert(p, 1, []byte(key(1))) // line 0 evicted
		out := tab.OutLines()
		if len(out) != 1 {
			t.Fatalf("OutLines = %v", out)
		}
		if err := tab.Relocate(0, Location{Node: 5, Slot: 0}); err != nil {
			t.Fatal(err)
		}
		if got := tab.OutLines()[0]; got.Node != 5 {
			t.Errorf("relocated to %+v", got)
		}
		if err := tab.Relocate(1, Location{}); err == nil {
			t.Error("relocating resident line accepted")
		}
	})
}

func TestPagerErrorsSurface(t *testing.T) {
	pager := newFakePager()
	tab, _ := New(Config{Lines: 2, LimitBytes: 1 * EntryMemBytes, Policy: SimpleSwap}, pager)
	runInSim(t, func(p *sim.Proc) {
		if err := tab.Insert(p, 0, []byte(key(0))); err != nil {
			t.Fatal(err)
		}
		pager.failNext = true
		if err := tab.Insert(p, 1, []byte(key(1))); err == nil {
			t.Error("store failure not surfaced")
		}
	})
}

func TestResidentNeverExceedsLimitDuringCounting(t *testing.T) {
	// Property-style: random probe workload; after every probe the resident
	// accounting respects the limit (single-line transient excluded since
	// lines here are one entry each).
	pager := newFakePager()
	const lines = 50
	limit := int64(10 * EntryMemBytes)
	tab, _ := New(Config{Lines: lines, LimitBytes: limit, Policy: SimpleSwap}, pager)
	rng := rand.New(rand.NewSource(42))
	runInSim(t, func(p *sim.Proc) {
		for i := 0; i < lines; i++ {
			if err := tab.Insert(p, i, []byte(key(i))); err != nil {
				t.Fatal(err)
			}
		}
		oracle := map[string]int32{}
		for step := 0; step < 2000; step++ {
			li := rng.Intn(lines)
			if err := tab.Probe(p, li, []byte(key(li))); err != nil {
				t.Fatal(err)
			}
			oracle[key(li)]++
			if tab.ResidentBytes() > limit {
				t.Fatalf("step %d: resident %d > limit %d", step, tab.ResidentBytes(), limit)
			}
		}
		entries, err := tab.Collect(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != lines {
			t.Fatalf("Collect returned %d entries, want %d", len(entries), lines)
		}
		for _, e := range entries {
			if e.Count != oracle[e.Key] {
				t.Errorf("count(%s) = %d, oracle %d", e.Key, e.Count, oracle[e.Key])
			}
		}
	})
	s := tab.Stats()
	if s.Pagefaults == 0 || s.Evictions == 0 {
		t.Errorf("workload exercised no swapping: %+v", s)
	}
}

func TestCountsIdenticalAcrossPolicies(t *testing.T) {
	// The key invariant of the paper's mechanisms: mining results do not
	// depend on the swapping policy.
	results := map[string]map[string]int32{}
	for _, pol := range []Policy{SimpleSwap, RemoteUpdate} {
		pager := newFakePager()
		tab, _ := New(Config{Lines: 20, LimitBytes: 5 * EntryMemBytes, Policy: pol}, pager)
		rng := rand.New(rand.NewSource(7))
		runInSim(t, func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				tab.Insert(p, i, []byte(key(i)))
			}
			for step := 0; step < 1500; step++ {
				li := rng.Intn(20)
				if err := tab.Probe(p, li, []byte(key(li))); err != nil {
					t.Fatal(err)
				}
			}
			entries, err := tab.Collect(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			m := map[string]int32{}
			for _, e := range entries {
				m[e.Key] = e.Count
			}
			results[pol.String()] = m
		})
	}
	a, b := results[SimpleSwap.String()], results[RemoteUpdate.String()]
	if len(a) != len(b) {
		t.Fatalf("entry counts differ: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("count(%s): simple %d vs remote-update %d", k, v, b[k])
		}
	}
}

func TestMultiEntryLines(t *testing.T) {
	pager := newFakePager()
	tab, _ := New(Config{Lines: 4, LimitBytes: 6 * EntryMemBytes, Policy: SimpleSwap}, pager)
	runInSim(t, func(p *sim.Proc) {
		// 3 entries per line, 4 lines = 12 entries > limit of 6.
		for e := 0; e < 3; e++ {
			for li := 0; li < 4; li++ {
				if err := tab.Insert(p, li, []byte(key(li*10+e))); err != nil {
					t.Fatal(err)
				}
			}
		}
		entries, err := tab.Collect(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 12 {
			t.Fatalf("Collect = %d entries, want 12", len(entries))
		}
	})
}
