package chaos

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/trace"
)

// soakSchedule is the fixed acceptance schedule: connection resets, a
// blackhole partition, refused connections, a bandwidth squeeze, and one
// server crash/restart — the full matrix at deterministic operation
// indices.
func soakSchedule() Schedule {
	return Schedule{
		{AtOp: 8, Note: "latency burst", Faults: &Faults{Latency: 3 * time.Millisecond, Jitter: 2 * time.Millisecond}},
		{AtOp: 14, Note: "clear faults", Faults: &Faults{}},
		{AtOp: 18, Note: "reset all connections", ResetConns: true},
		{AtOp: 22, Note: "server crash", CrashServer: true},
		{AtOp: 28, Note: "server restart", RestartServer: true},
		{AtOp: 34, Note: "cut connections after 64 bytes", Faults: &Faults{CutAfterBytes: 64}},
		{AtOp: 38, Note: "clear faults", Faults: &Faults{}},
		{AtOp: 42, Note: "blackhole partition", ResetConns: true, Faults: &Faults{Blackhole: true}},
		{AtOp: 45, Note: "heal partition", Faults: &Faults{}},
		{AtOp: 50, Note: "refuse new connections", ResetConns: true, Faults: &Faults{RefuseNew: true}},
		{AtOp: 53, Note: "accept again", Faults: &Faults{}},
		{AtOp: 58, Note: "bandwidth squeeze", Faults: &Faults{BandwidthBPS: 32 << 10}},
		{AtOp: 62, Note: "clear faults", Faults: &Faults{}},
	}
}

// TestSoakFaultFree: the baseline run — no faults, every fetch verifies
// against its shadow, nothing leaks.
func TestSoakFaultFree(t *testing.T) {
	rep, err := RunSoak(SoakConfig{Seed: 42, Ops: 70})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pager.VerifiedFetches != uint64(rep.Ops) {
		t.Errorf("VerifiedFetches = %d, want %d (every fetch verified)",
			rep.Pager.VerifiedFetches, rep.Ops)
	}
	if rep.Pager.Taints != 0 || rep.Pager.Recoveries != 0 || rep.FallbackStores != 0 {
		t.Errorf("fault-free run degraded: %+v, %d fallback stores", rep.Pager, rep.FallbackStores)
	}
	if len(rep.FinalCounts) == 0 {
		t.Fatal("empty end-state")
	}
}

// TestSoakChaosMatchesFaultFree is the acceptance invariant: a soak under
// the full fault schedule — resets, partitions, one crash/restart — ends
// with zero lost and zero duplicated lines, and counts identical to the
// fault-free run of the same seed.
func TestSoakChaosMatchesFaultFree(t *testing.T) {
	seed := int64(1234)
	baseline, err := RunSoak(SoakConfig{Seed: seed, Ops: 70})
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}

	rec := trace.NewRecorder()
	chaotic, err := RunSoak(SoakConfig{
		Seed:     seed,
		Ops:      70,
		Schedule: soakSchedule(),
		Logf:     t.Logf,
		Rec:      rec,
	})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}

	if !reflect.DeepEqual(chaotic.FinalCounts, baseline.FinalCounts) {
		t.Fatal("chaos end-state differs from the fault-free run")
	}
	if chaotic.StepsApplied != len(soakSchedule()) {
		t.Errorf("applied %d steps, want %d", chaotic.StepsApplied, len(soakSchedule()))
	}
	// The schedule must actually have hurt: degraded-mode machinery fired.
	deg := chaotic.Pager
	if deg.Taints+deg.Recoveries+chaotic.FallbackStores == 0 {
		t.Errorf("no degraded-mode activity under the fault schedule: %+v", deg)
	}
	if chaotic.Proxy.Cuts == 0 {
		t.Error("no connections were cut")
	}
	if chaotic.Client.Retries == 0 {
		t.Error("client never retried")
	}
	if deg.Mismatches != 0 {
		t.Errorf("Mismatches = %d — verified fetch diverged", deg.Mismatches)
	}
	if n := len(rec.Events()); n != len(soakSchedule()) {
		t.Errorf("traced %d chaos events, want %d", n, len(soakSchedule()))
	}
	t.Logf("chaos soak: %d ops in %v; pager %+v; %d fallback stores; proxy %+v",
		chaotic.Ops, chaotic.Elapsed, deg, chaotic.FallbackStores, chaotic.Proxy)
}

// TestSoakRandomSchedule: a randomized (but seeded) schedule holds the same
// invariant — RunSoak's internal model check is the assertion.
func TestSoakRandomSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("random-schedule soak skipped in -short")
	}
	const ops = 60
	rep, err := RunSoak(SoakConfig{
		Seed:     99,
		Ops:      ops,
		Schedule: RandomSchedule(99, ops, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StepsApplied == 0 {
		t.Error("no schedule steps applied")
	}
}

// TestSoakOverloadedServer: a tiny server capacity forces capacity NACKs;
// lines divert to the fallback tier and the end state still holds.
func TestSoakOverloadedServer(t *testing.T) {
	rep, err := RunSoak(SoakConfig{
		Seed:           7,
		Ops:            40,
		ServerCapacity: 24 * 2, // under one line's 4 entries: every store NACKs
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FallbackStores == 0 {
		t.Errorf("no capacity failovers against a tiny server: %+v", rep.Pager)
	}
}
