package remotemem

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestFetchTimeoutRecoversFromCrashedStore exercises the full failure path:
// the holder crashes, every fetch attempt times out, the store is declared
// dead, and the line is rebuilt from the client's shadow copy.
func TestFetchTimeoutRecoversFromCrashedStore(t *testing.T) {
	r := newRig(t, 1, 32<<20, sim.Second)
	m := r.layout.MemIDs()
	r.client.FetchTimeout = 5 * sim.Millisecond
	r.client.FetchRetries = 2
	r.client.RetryBackoff = sim.Millisecond
	r.client.RecoverCPU = 10 * sim.Microsecond
	if err := r.nw.InstallFaults(simnet.FaultPlan{
		Crashes: []simnet.Crash{{Node: m[0], At: sim.Time(50 * sim.Millisecond)}},
	}); err != nil {
		t.Fatal(err)
	}
	r.k.Go("app", func(p *sim.Proc) {
		defer r.stopAll()
		loc, err := r.client.StoreOut(p, 3, entriesN(4, 3))
		if err != nil {
			t.Fatal(err)
		}
		p.Sleep(100 * sim.Millisecond) // crash happens while the line is out
		got, err := r.client.FetchIn(p, 3, loc)
		if err != nil {
			t.Fatalf("fetch after crash: %v", err)
		}
		if len(got) != 4 || got[0].Key != "e3-0" {
			t.Errorf("recovered %v", got)
		}
	})
	r.k.Run()
	res := r.client.Resilience()
	if res.Retries != 2 {
		t.Errorf("Retries = %d, want 2", res.Retries)
	}
	if res.DeadlineHits != 3 {
		t.Errorf("DeadlineHits = %d, want 3", res.DeadlineHits)
	}
	if res.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", res.Failovers)
	}
	if res.LinesLost != 1 {
		t.Errorf("LinesLost = %d, want 1", res.LinesLost)
	}
}

// TestHeartbeatDeclaresDead verifies the DeadAfter window: when a store's
// reports go silent while a sibling keeps reporting, the monitor client
// declares it dead and later fetches fail over to shadow recovery without
// any timeout wait.
func TestHeartbeatDeclaresDead(t *testing.T) {
	r := newRig(t, 2, 32<<20, 100*sim.Millisecond)
	m := r.layout.MemIDs()
	r.client.DeadAfter = 350 * sim.Millisecond
	if err := r.nw.InstallFaults(simnet.FaultPlan{
		Crashes: []simnet.Crash{{Node: m[0], At: sim.Time(200 * sim.Millisecond)}},
	}); err != nil {
		t.Fatal(err)
	}
	r.k.Go("app", func(p *sim.Proc) {
		defer r.stopAll()
		// Force placement on m[0] by making m[1] look full until reports
		// refresh it.
		r.client.Seed(m[1], 0)
		loc, err := r.client.StoreOut(p, 8, entriesN(3, 8))
		if err != nil {
			t.Fatal(err)
		}
		if loc.Node != m[0] {
			t.Fatalf("line placed at %d, want %d", loc.Node, m[0])
		}
		// Well past crash + DeadAfter; m[1]'s reports keep arriving and the
		// heartbeat sweep runs on each of them.
		p.Sleep(800 * sim.Millisecond)
		got, err := r.client.FetchIn(p, 8, loc)
		if err != nil {
			t.Fatalf("fetch from dead store: %v", err)
		}
		if len(got) != 3 {
			t.Errorf("recovered %d entries, want 3", len(got))
		}
	})
	r.k.Run()
	res := r.client.Resilience()
	if res.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", res.Failovers)
	}
	if res.LinesLost != 1 {
		t.Errorf("LinesLost = %d, want 1", res.LinesLost)
	}
	if res.Retries != 0 || res.DeadlineHits != 0 {
		t.Errorf("heartbeat path should not need fetch retries: %+v", res)
	}
}

// TestShadowMirrorsUpdates checks that one-way updates are applied to the
// shadow as well, so a recovery after a crash returns the same counts the
// remote copy accumulated.
func TestShadowMirrorsUpdates(t *testing.T) {
	r := newRig(t, 1, 32<<20, sim.Second)
	m := r.layout.MemIDs()
	r.client.FetchTimeout = 5 * sim.Millisecond
	r.client.FetchRetries = 1
	if err := r.nw.InstallFaults(simnet.FaultPlan{
		Crashes: []simnet.Crash{{Node: m[0], At: sim.Time(50 * sim.Millisecond)}},
	}); err != nil {
		t.Fatal(err)
	}
	r.k.Go("app", func(p *sim.Proc) {
		defer r.stopAll()
		loc, err := r.client.StoreOut(p, 2, entriesN(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		// Two updates land before the crash, one is sent into the void after.
		if err := r.client.Update(p, 2, loc, "e2-0"); err != nil {
			t.Fatal(err)
		}
		if err := r.client.Update(p, 2, loc, "e2-0"); err != nil {
			t.Fatal(err)
		}
		p.Sleep(100 * sim.Millisecond)
		if err := r.client.Update(p, 2, loc, "e2-1"); err != nil {
			t.Fatal(err)
		}
		got, err := r.client.FetchIn(p, 2, loc)
		if err != nil {
			t.Fatalf("fetch after crash: %v", err)
		}
		counts := map[string]int32{}
		for _, e := range got {
			counts[e.Key] = e.Count
		}
		if counts["e2-0"] != 2 || counts["e2-1"] != 1 {
			t.Errorf("recovered counts %v, want e2-0:2 e2-1:1", counts)
		}
	})
	r.k.Run()
	if r.client.Resilience().LinesLost != 1 {
		t.Errorf("LinesLost = %d, want 1", r.client.Resilience().LinesLost)
	}
}

// TestUpdateInFlightStoreDoesNotDoubleCount: an update issued while the
// StoreMsg is still in flight (the store copies entries on receipt, one
// network latency after send) must not leak into the store's copy through a
// shadow that shares the shipped backing array — that would count the update
// twice: once via the leaked mutation, once via the trailing UpdateMsg.
func TestUpdateInFlightStoreDoesNotDoubleCount(t *testing.T) {
	r := newRig(t, 1, 32<<20, sim.Second)
	r.client.FetchTimeout = sim.Second // arm fault tolerance: shadows retained
	r.k.Go("app", func(p *sim.Proc) {
		defer r.stopAll()
		loc, err := r.client.StoreOut(p, 6, entriesN(2, 6))
		if err != nil {
			t.Fatal(err)
		}
		// No sleep: the StoreMsg has been sent but not yet delivered.
		if err := r.client.Update(p, 6, loc, "e6-0"); err != nil {
			t.Fatal(err)
		}
		p.Sleep(10 * sim.Millisecond)
		got, err := r.client.FetchIn(p, 6, loc)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int32{}
		for _, e := range got {
			counts[e.Key] = e.Count
		}
		if counts["e6-0"] != 1 {
			t.Errorf("count = %d, want 1 (shadow aliased the in-flight StoreMsg?)", counts["e6-0"])
		}
	})
	r.k.Run()
}

// TestRevivedStoreKeepsShadowAuthoritative covers the partition-heal
// scenario: a store is declared dead by the heartbeat sweep, updates issued
// meanwhile reach only the shadow, and then the partition heals and the
// store reports again. The revived store's copy is stale — the fetch must
// return the shadow's counts, not the remote copy's.
func TestRevivedStoreKeepsShadowAuthoritative(t *testing.T) {
	r := newRig(t, 2, 32<<20, 100*sim.Millisecond)
	m := r.layout.MemIDs()
	r.client.DeadAfter = 250 * sim.Millisecond
	if err := r.nw.InstallFaults(simnet.FaultPlan{
		Partitions: []simnet.Partition{{
			Nodes: []int{m[0]},
			At:    sim.Time(150 * sim.Millisecond),
			Heal:  sim.Time(800 * sim.Millisecond),
		}},
	}); err != nil {
		t.Fatal(err)
	}
	r.k.Go("app", func(p *sim.Proc) {
		defer r.stopAll()
		r.client.Seed(m[1], 0) // force placement on m[0]
		loc, err := r.client.StoreOut(p, 7, entriesN(3, 7))
		if err != nil {
			t.Fatal(err)
		}
		if loc.Node != m[0] {
			t.Fatalf("line placed at %d, want %d", loc.Node, m[0])
		}
		// Lands remotely (before the partition): remote copy reads 1.
		if err := r.client.Update(p, 7, loc, "e7-0"); err != nil {
			t.Fatal(err)
		}
		// Past partition + DeadAfter: m[1]'s reports kept flowing while
		// m[0] went silent, so the monitor client has declared m[0] dead.
		p.Sleep(600 * sim.Millisecond)
		// Skipped remotely (dead holder): only the shadow reads 2 now.
		if err := r.client.Update(p, 7, loc, "e7-0"); err != nil {
			t.Fatal(err)
		}
		// Past Heal plus a few monitor rounds: m[0] reported healthy again
		// and was revived, with line 7 tainted.
		p.Sleep(700 * sim.Millisecond)
		got, err := r.client.FetchIn(p, 7, loc)
		if err != nil {
			t.Fatalf("fetch after heal: %v", err)
		}
		counts := map[string]int32{}
		for _, e := range got {
			counts[e.Key] = e.Count
		}
		if counts["e7-0"] != 2 {
			t.Errorf("count = %d, want 2 (revived store served its stale copy?)", counts["e7-0"])
		}
	})
	r.k.Run()
	res := r.client.Resilience()
	if res.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", res.Failovers)
	}
	if res.LinesLost != 1 {
		t.Errorf("LinesLost = %d, want 1 (tainted line rebuilt from shadow)", res.LinesLost)
	}
}

// TestMigrateCmdRacingFetch drives the store directly with a MigrateCmd and
// a FetchReq for the same lines in both interleavings: a fetch that arrives
// first is served and skipped by the migration; a fetch that arrives after
// is transparently forwarded to the destination store.
func TestMigrateCmdRacingFetch(t *testing.T) {
	k := sim.NewKernel()
	layout := transport.Layout{AppNodes: 1, MemNodes: 2}
	nw := simnet.New(k, simnet.PaperATM(), layout.Total())
	m := layout.MemIDs()
	src := NewStore(transport.NewSimEndpoint(nw, m[0]), 32<<20, DefaultCosts())
	dst := NewStore(transport.NewSimEndpoint(nw, m[1]), 32<<20, DefaultCosts())
	k.Go("src", func(p *sim.Proc) { src.Run(p) })
	k.Go("dst", func(p *sim.Proc) { dst.Run(p) })

	reply := nw.Inbox(0, transport.PortMemReply)
	done := nw.Inbox(0, transport.PortMon)
	var doneLines []int
	k.Go("app", func(p *sim.Proc) {
		for line := 1; line <= 4; line++ {
			nw.Send(p, 0, m[0], transport.PortMem,
				StoreMsg{Owner: 0, Line: line, Entries: entriesN(2, line)}, 4096)
		}
		p.Sleep(20 * sim.Millisecond)

		// Fetch-before-migrate: the FetchReq for line 1 reaches the store
		// ahead of the MigrateCmd listing it, so the store serves it and the
		// migration skips it.
		nw.Send(p, 0, m[0], transport.PortMem, FetchReq{Owner: 0, Line: 1, Seq: 1}, reqWireBytes)
		nw.Send(p, 0, m[0], transport.PortMem,
			MigrateCmd{Owner: 0, Lines: []int{1, 2, 3, 4}, Dest: m[1]}, migrateCmdWireBytes(4))
		// Fetch-after-migrate: line 3's FetchReq queues behind the
		// MigrateCmd, finds the line moved, and is forwarded to dst.
		nw.Send(p, 0, m[0], transport.PortMem, FetchReq{Owner: 0, Line: 3, Seq: 2}, reqWireBytes)

		for got := 0; got < 2; got++ {
			mres := reply.Recv(p)
			rep, ok := mres.Payload.(FetchReply)
			if !ok {
				t.Fatalf("unexpected reply %T", mres.Payload)
			}
			if rep.Err != "" {
				t.Fatalf("fetch line %d failed: %s", rep.Line, rep.Err)
			}
			want := map[int]string{1: "e1-0", 3: "e3-0"}[rep.Line]
			if len(rep.Entries) != 2 || rep.Entries[0].Key != want {
				t.Errorf("line %d returned %v", rep.Line, rep.Entries)
			}
		}
		d := done.Recv(p).Payload.(MigrateDone)
		doneLines = d.Lines
	})
	k.Run()
	k.Shutdown()

	if len(doneLines) != 3 {
		t.Errorf("MigrateDone lists %v, want 3 lines (line 1 fetched first)", doneLines)
	}
	for _, l := range doneLines {
		if l == 1 {
			t.Error("line 1 reported migrated despite concurrent fetch")
		}
	}
	_, _, _, migrated, forwarded := src.Stats()
	if migrated != 3 {
		t.Errorf("src migrated %d lines, want 3", migrated)
	}
	if forwarded != 1 {
		t.Errorf("src forwarded %d requests, want 1 (line 3)", forwarded)
	}
	if held := dst.HeldLines(); held != 2 {
		t.Errorf("dst holds %d lines, want 2 (lines 2 and 4)", held)
	}
}

// TestStrayMessagesLoggedNotFatal sends garbage payloads at every port and
// verifies nothing panics and real traffic still flows.
func TestStrayMessagesLoggedNotFatal(t *testing.T) {
	r := newRig(t, 1, 32<<20, sim.Second)
	m := r.layout.MemIDs()
	var logged int
	r.client.Logf = func(string, ...any) { logged++ }
	r.stores[0].Logf = func(string, ...any) { logged++ }
	r.k.Go("app", func(p *sim.Proc) {
		defer r.stopAll()
		// Garbage to the store's request port and the client's monitor port.
		r.nw.Send(p, 0, m[0], transport.PortMem, "garbage", 64)
		r.nw.Send(p, 0, 0, transport.PortMon, 12345, 64)
		loc, err := r.client.StoreOut(p, 4, entriesN(2, 4))
		if err != nil {
			t.Fatal(err)
		}
		p.Sleep(10 * sim.Millisecond)
		// Garbage on the reply port ahead of the real reply.
		r.nw.Send(p, 0, 0, transport.PortMemReply, 3.14, 64)
		got, err := r.client.FetchIn(p, 4, loc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Errorf("fetched %d entries", len(got))
		}
	})
	r.k.Run()
	if r.stores[0].DroppedMessages() != 1 {
		t.Errorf("store dropped %d messages, want 1", r.stores[0].DroppedMessages())
	}
	if logged < 3 {
		t.Errorf("expected at least 3 logged drops, got %d", logged)
	}
}
