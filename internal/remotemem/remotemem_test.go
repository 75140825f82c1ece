package remotemem

import (
	"fmt"
	"testing"

	"repro/internal/memtable"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// rig wires one app node (0) and m memory nodes (1..m) with stores,
// monitors, and a client.
type rig struct {
	k       *sim.Kernel
	nw      *simnet.Network
	layout  transport.Layout
	stores  []*Store
	mons    []*Monitor
	client  *Client
	costs   Costs
	stopAll func()
}

func newRig(t *testing.T, memNodes int, capacity int64, interval sim.Duration) *rig {
	t.Helper()
	k := sim.NewKernel()
	layout := transport.Layout{AppNodes: 1, MemNodes: memNodes}
	nw := simnet.New(k, simnet.PaperATM(), layout.Total())
	costs := DefaultCosts()
	r := &rig{k: k, nw: nw, layout: layout, costs: costs}
	r.client = NewClient(transport.NewSimEndpoint(nw, 0), layout)
	for _, id := range layout.MemIDs() {
		ep := transport.NewSimEndpoint(nw, id)
		st := NewStore(ep, capacity, costs)
		r.stores = append(r.stores, st)
		k.Go(fmt.Sprintf("store-%d", id), func(p *sim.Proc) { st.Run(p) })
		mon := NewMonitor(ep, layout, st, interval)
		r.mons = append(r.mons, mon)
		k.Go(fmt.Sprintf("mon-%d", id), func(p *sim.Proc) { mon.Run(p) })
		r.client.Seed(id, st.FreeBytes())
	}
	k.Go("mon-client", func(p *sim.Proc) { r.client.RunMonitor(p) })
	r.stopAll = func() {
		for _, m := range r.mons {
			m.Stop()
		}
		r.client.Stop()
	}
	return r
}

func entriesN(n, tag int) []memtable.Entry {
	out := make([]memtable.Entry, n)
	for i := range out {
		out[i] = memtable.Entry{Key: fmt.Sprintf("e%d-%d", tag, i)}
	}
	return out
}

func TestStoreFetchRoundTrip(t *testing.T) {
	r := newRig(t, 2, 32<<20, sim.Second)
	r.k.Go("app", func(p *sim.Proc) {
		defer r.stopAll()
		loc, err := r.client.StoreOut(p, 5, entriesN(4, 5))
		if err != nil {
			t.Fatal(err)
		}
		if loc.Node < r.layout.AppNodes || loc.Node >= r.layout.Total() {
			t.Errorf("stored at non-memory node %d", loc.Node)
		}
		p.Sleep(10 * sim.Millisecond) // let the one-way store land
		got, err := r.client.FetchIn(p, 5, loc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 || got[0].Key != "e5-0" {
			t.Errorf("fetched %v", got)
		}
	})
	r.k.Run()
	var held int
	for _, s := range r.stores {
		held += s.HeldLines()
	}
	if held != 0 {
		t.Errorf("%d lines still held after fetch", held)
	}
}

func TestFetchLatencyMatchesTable4Regime(t *testing.T) {
	// An unloaded pagefault (store-out + fetch round trip) should cost
	// ≈1.6–2.1 ms, the low end of Table 4's 1.90–2.37 ms.
	r := newRig(t, 1, 32<<20, sim.Second)
	var perFault float64
	r.k.Go("app", func(p *sim.Proc) {
		defer r.stopAll()
		const n = 200
		locs := make([]memtable.Location, n)
		var err error
		// Pre-store, then alternate evict+fault like steady-state swapping.
		for i := 0; i < n; i++ {
			if locs[i], err = r.client.StoreOut(p, i, entriesN(6, i)); err != nil {
				t.Fatal(err)
			}
		}
		p.Sleep(sim.Second)
		start := p.Now()
		for i := 0; i < n; i++ {
			if _, err := r.client.FetchIn(p, i, locs[i]); err != nil {
				t.Fatal(err)
			}
			if _, err = r.client.StoreOut(p, i, entriesN(6, i)); err != nil {
				t.Fatal(err)
			}
		}
		perFault = p.Now().Sub(start).Milliseconds() / n
	})
	r.k.Run()
	if perFault < 1.3 || perFault > 2.6 {
		t.Errorf("per-fault cost %.2f ms, want Table-4 regime ≈1.9-2.4", perFault)
	}
}

func TestUpdateIncrementsRemoteCount(t *testing.T) {
	r := newRig(t, 1, 32<<20, sim.Second)
	r.k.Go("app", func(p *sim.Proc) {
		defer r.stopAll()
		loc, err := r.client.StoreOut(p, 3, entriesN(3, 3))
		if err != nil {
			t.Fatal(err)
		}
		p.Sleep(10 * sim.Millisecond)
		for i := 0; i < 7; i++ {
			if err := r.client.Update(p, 3, loc, "e3-1"); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.client.Update(p, 3, loc, "no-such-key"); err != nil {
			t.Fatal(err)
		}
		p.Sleep(10 * sim.Millisecond)
		got, err := r.client.FetchIn(p, 3, loc)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range got {
			want := int32(0)
			if e.Key == "e3-1" {
				want = 7
			}
			if e.Count != want {
				t.Errorf("count(%s) = %d, want %d", e.Key, e.Count, want)
			}
		}
	})
	r.k.Run()
}

func TestMonitorReportsUpdateAvailability(t *testing.T) {
	r := newRig(t, 2, 10<<20, 100*sim.Millisecond)
	r.k.Go("app", func(p *sim.Proc) {
		defer r.stopAll()
		// Consume some capacity at the first memory node.
		if _, err := r.client.StoreOut(p, 0, entriesN(1000, 0)); err != nil {
			t.Fatal(err)
		}
		p.Sleep(500 * sim.Millisecond) // several monitor rounds
		m1 := r.layout.MemIDs()[0]
		free := r.client.Avail().Effective(m1) + r.client.Avail().ReserveBytes
		// After reports, sinceReport resets, so effective ≈ reported free.
		want := int64(10<<20) - 1000*memtable.EntryMemBytes
		if free != want {
			t.Errorf("reported free %d, want %d", free, want)
		}
	})
	r.k.Run()
	// Each round costs interval + sampleCPU (the netstat fork), so 500 ms
	// fits ≥3 rounds at a 100 ms interval.
	if r.mons[0].Reports() < 3 {
		t.Errorf("monitor broadcast only %d rounds", r.mons[0].Reports())
	}
}

func TestStoreOutRotatesAndSkipsFullNodes(t *testing.T) {
	r := newRig(t, 3, 8<<20, sim.Second)
	m := r.layout.MemIDs()
	// Middle node has no room; the other two must share the load.
	r.client.Seed(m[0], 6<<20)
	r.client.Seed(m[1], 0)
	r.client.Seed(m[2], 6<<20)
	placed := map[int]int{}
	r.k.Go("app", func(p *sim.Proc) {
		defer r.stopAll()
		for i := 0; i < 12; i++ {
			loc, err := r.client.StoreOut(p, i, entriesN(10, i))
			if err != nil {
				t.Fatal(err)
			}
			placed[loc.Node]++
		}
	})
	r.k.Run()
	if placed[m[1]] != 0 {
		t.Errorf("full node received %d stores", placed[m[1]])
	}
	if placed[m[0]] == 0 || placed[m[2]] == 0 {
		t.Errorf("rotation did not spread the load: %v", placed)
	}
	if diff := placed[m[0]] - placed[m[2]]; diff > 2 || diff < -2 {
		t.Errorf("rotation unbalanced: %v", placed)
	}
}

func TestStoreOutFailsWhenNothingFits(t *testing.T) {
	r := newRig(t, 1, 1<<10, sim.Second)
	r.client.Seed(r.layout.MemIDs()[0], 100) // tiny
	r.k.Go("app", func(p *sim.Proc) {
		defer r.stopAll()
		if _, err := r.client.StoreOut(p, 0, entriesN(1000, 0)); err == nil {
			t.Error("oversized store accepted with no capacity anywhere")
		}
	})
	r.k.Run()
}

func TestMigrationMovesLinesAndRelocates(t *testing.T) {
	r := newRig(t, 3, 32<<20, 200*sim.Millisecond)
	tab, err := memtable.New(memtable.Config{
		Lines: 16, LimitBytes: 4 * memtable.EntryMemBytes, Policy: memtable.RemoteUpdate,
	}, r.client)
	if err != nil {
		t.Fatal(err)
	}
	r.client.AttachTable(tab)
	m := r.layout.MemIDs()
	// Force placement so everything lands on m[0] first: the other stores
	// look full until their monitors report real availability.
	r.client.Seed(m[0], 30<<20)
	r.client.Seed(m[1], 0)
	r.client.Seed(m[2], 0)

	var outBefore, outAfter map[int]memtable.Location
	r.k.Go("app", func(p *sim.Proc) {
		defer r.stopAll()
		for i := 0; i < 16; i++ {
			if err := tab.Insert(p, i, []byte(fmt.Sprintf("k%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		outBefore = tab.OutLines()
		// All out lines should be on m[0] given the seeded skew.
		for line, loc := range outBefore {
			if loc.Node != m[0] {
				t.Fatalf("line %d stored at %d before migration", line, loc.Node)
			}
		}
		// Memory node m[0] loses its memory; monitors notice and the client
		// must direct migration.
		r.stores[0].SetExternalLoad(1 << 40)
		p.Sleep(2 * sim.Second)
		outAfter = tab.OutLines()
		for line, loc := range outAfter {
			if loc.Node == m[0] {
				t.Errorf("line %d still located at withdrawn node", line)
			}
		}
		// Updates to migrated lines must still land (forwarding or new loc).
		for line, loc := range outAfter {
			if err := r.client.Update(p, line, loc, fmt.Sprintf("k%d", line)); err != nil {
				t.Fatal(err)
			}
		}
		p.Sleep(100 * sim.Millisecond)
		entries, err := tab.Collect(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int32{}
		for _, e := range entries {
			counts[e.Key] = e.Count
		}
		for line := range outAfter {
			key := fmt.Sprintf("k%d", line)
			if counts[key] != 1 {
				t.Errorf("post-migration update lost for %s: count %d", key, counts[key])
			}
		}
	})
	r.k.Run()
	if len(outBefore) == 0 {
		t.Fatal("test exercised no swapped-out lines")
	}
	if r.client.Migrations() == 0 {
		t.Error("no migration round ran")
	}
	if r.stores[0].HeldLines() != 0 {
		t.Errorf("withdrawn store still holds %d lines", r.stores[0].HeldLines())
	}
	_, _, _, migrated, _ := r.stores[0].Stats()
	if migrated == 0 {
		t.Error("store migrated nothing")
	}
}

func TestForwardingServesInFlightFetch(t *testing.T) {
	// A fetch racing with migration must still succeed via the forward map.
	r := newRig(t, 2, 32<<20, 50*sim.Millisecond)
	m := r.layout.MemIDs()
	r.client.Seed(m[0], 30<<20)
	r.client.Seed(m[1], 1<<20)
	r.k.Go("app", func(p *sim.Proc) {
		defer r.stopAll()
		loc, err := r.client.StoreOut(p, 9, entriesN(2, 9))
		if err != nil {
			t.Fatal(err)
		}
		if loc.Node != m[0] {
			t.Fatalf("seeded placement failed: %d", loc.Node)
		}
		p.Sleep(10 * sim.Millisecond)
		// Withdraw m[0]; wait for migration to complete, then fetch using the
		// STALE location. The store must forward.
		r.stores[0].SetExternalLoad(1 << 40)
		p.Sleep(sim.Second)
		got, err := r.client.FetchIn(p, 9, memtable.Location{Node: m[0]})
		if err != nil {
			t.Fatalf("stale-location fetch failed: %v", err)
		}
		if len(got) != 2 {
			t.Errorf("fetched %d entries", len(got))
		}
	})
	r.k.Run()
	_, _, _, _, forwarded := r.stores[0].Stats()
	if forwarded == 0 {
		t.Error("no request was forwarded")
	}
}

func TestAvailTablePick(t *testing.T) {
	a := NewAvailTable()
	if _, ok := a.Pick(10); ok {
		t.Error("empty table picked a node")
	}
	a.Report(0, 1, 1000)
	a.Report(0, 2, 5000)
	if n, ok := a.Pick(100); !ok || n != 2 {
		t.Errorf("Pick = %d,%v; want 2,true", n, ok)
	}
	a.Charge(2, 4950)
	if n, ok := a.Pick(100); !ok || n != 1 {
		t.Errorf("after charge Pick = %d,%v; want 1,true", n, ok)
	}
	if _, ok := a.Pick(10_000); ok {
		t.Error("oversized need satisfied")
	}
	if n, ok := a.PickExcluding(100, map[int]bool{1: true}); ok {
		t.Errorf("PickExcluding returned %d despite exclusion and charge", n)
	}
	a.Report(0, 2, 5000) // fresh report clears charge
	if n, ok := a.PickExcluding(100, map[int]bool{1: true}); !ok || n != 2 {
		t.Errorf("PickExcluding = %d,%v; want 2,true", n, ok)
	}
}

func TestMonitorIntervalValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero interval accepted")
		}
	}()
	NewMonitor(nil, transport.Layout{AppNodes: 1}, nil, 0)
}
