package remotemem

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/memtable"
	"repro/internal/rmtp"
	"repro/internal/transport"
)

// startTinyFleet starts n servers that can each hold just one entry, so any
// realistic line draws a capacity NACK from every one of them.
func startTinyFleet(t *testing.T, n int) []string {
	t.Helper()
	return startTestFleet(t, n, 24) // entryMemBytes = 24: one entry fits, two don't
}

// TestStoreOutErrorsWhenFleetExhausted: with every server NACKing, the bare
// TCPPager fails the store when its window settles (no silent drop) and
// counts the refusals.
func TestStoreOutErrorsWhenFleetExhausted(t *testing.T) {
	addrs := startTinyFleet(t, 2)
	tp, err := NewTCPPager("d1", addrs, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	p := transport.NewRealProc()
	if _, err := tp.StoreOut(p, 1, entries("aaaa", 1, "bbbb", 2, "cccc", 3)); err != nil {
		t.Fatalf("store-out with an unsent window: %v", err)
	}
	err = tp.Flush()
	if err == nil {
		t.Fatal("store succeeded against an exhausted fleet")
	}
	if !errors.Is(err, rmtp.ErrCapacity) {
		t.Fatalf("fleet-exhausted store = %v, want ErrCapacity in the chain", err)
	}
	st := tp.Stats()
	if st.CapacityNacks != 2 || st.Failovers != 2 {
		t.Errorf("stats = %+v, want 2 capacity NACKs and 2 failovers (one per server)", st)
	}
	if st.Stores != 0 {
		t.Errorf("%d stores recorded for a refused line", st.Stores)
	}
}

// TestFallbackDivertsToDiskOnFleetExhaustion is the backpressure acceptance
// path: the whole fleet refuses, the pager diverts the line to its disk tier,
// a local spill file, and the line fetches back intact.
func TestFallbackDivertsToDiskOnFleetExhaustion(t *testing.T) {
	addrs := startTinyFleet(t, 2)
	tp, err := NewTCPPager("d2", addrs, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	fp, err := memtable.NewFilePager(filepath.Join(t.TempDir(), "spill.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()
	tp.SpillTo(fp)

	p := transport.NewRealProc()
	in := entries("aaaa", 1, "bbbb", 2, "cccc", 3)
	loc, err := tp.StoreOut(p, 1, in)
	if err != nil {
		t.Fatalf("store with a disk tier behind an exhausted fleet: %v", err)
	}
	if err := tp.Flush(); err != nil {
		t.Fatalf("settling a store with a disk tier behind an exhausted fleet: %v", err)
	}
	if h := holderOf(tp, 1); h >= 0 {
		t.Fatalf("line placed at node %d, want the disk tier (negative)", h)
	}
	if st := tp.Stats(); st.FallbackStores != 1 {
		t.Errorf("FallbackStores = %d, want 1", st.FallbackStores)
	}
	got, err := tp.FetchIn(p, 1, loc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != in[0] || got[2] != in[2] {
		t.Fatalf("spilled line fetched back as %v, stored %v", got, in)
	}
	if st := fp.Stats(); st.Stores != 1 || st.Fetches != 1 {
		t.Errorf("spill stats = %+v", st)
	}
}

// TestStoreFailoverOnDeadServer: a dead fleet member is skipped (after its
// refusal is counted as a failover, not a capacity NACK) and the line lands
// on a live server.
func TestStoreFailoverOnDeadServer(t *testing.T) {
	dead := rmtp.NewServer(1 << 20)
	if err := dead.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	live := startTestFleet(t, 1, 1<<20)
	opts := rmtp.Options{Timeout: 300 * time.Millisecond, Retries: 1, Backoff: 5 * time.Millisecond}
	tp, err := NewTCPPager("d3", []string{dead.Addr(), live[0]}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	dead.Close()

	p := transport.NewRealProc()
	if _, err := tp.StoreOut(p, 1, entries("k", 1)); err != nil {
		t.Fatalf("store with one dead server: %v", err)
	}
	if err := tp.Flush(); err != nil {
		t.Fatalf("settling a store with one dead server: %v", err)
	}
	if h := holderOf(tp, 1); h != 1 {
		t.Errorf("line placed on server %d, want the live server 1", h)
	}
	st := tp.Stats()
	if st.Failovers == 0 {
		t.Error("dead-server refusal not counted as a failover")
	}
	if st.CapacityNacks != 0 {
		t.Errorf("%d capacity NACKs counted for a connection failure", st.CapacityNacks)
	}
}

// TestPressureAwareRotationShedsToQuietServers: a server that flagged the
// soft watermark is demoted to last choice on subsequent store-outs, and the
// shed is counted.
func TestPressureAwareRotationShedsToQuietServers(t *testing.T) {
	// Server 0: room for 2 entries, pressure past 50% — the very first line
	// (2 entries) fills it and flags the ack. Server 1: effectively infinite.
	s0 := rmtp.NewServerOptions(2*24, rmtp.ServerOptions{SoftWatermark: 0.5})
	if err := s0.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s0.Close() })
	big := startTestFleet(t, 1, 1<<20)
	tp, err := NewTCPPager("d4", []string{s0.Addr(), big[0]}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	p := transport.NewRealProc()
	// Line 0: rotation starts at server 0, which accepts and flags pressure
	// when the line's window settles.
	loc, err := tp.StoreOut(p, 0, entries("k1", 1, "k2", 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Flush(); err != nil {
		t.Fatal(err)
	}
	if loc.Node != 0 || holderOf(tp, 0) != 0 {
		t.Fatalf("first line on server %d (first choice %d), want 0", holderOf(tp, 0), loc.Node)
	}
	// Line 1: rotation's first choice is server 1 anyway.
	if _, err := tp.StoreOut(p, 1, entries("k1", 1)); err != nil {
		t.Fatal(err)
	}
	// Line 2: rotation points back at server 0, but its pressure flag sheds
	// the line to server 1.
	loc, err = tp.StoreOut(p, 2, entries("k1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if loc.Node != 0 && tp.Stats().SoftSheds == 0 {
		t.Fatalf("no shed counted yet line landed on server %d", loc.Node)
	}
	if loc.Node != 1 {
		t.Errorf("pressured server still first choice: line on server %d, want 1", loc.Node)
	}
	if st := tp.Stats(); st.SoftSheds == 0 {
		t.Errorf("stats = %+v, want at least one soft shed", st)
	}
}

// TestResetClearsFleetAndLocalMap: a recovery reset purges the owner's lines
// on every server and forgets the local bookkeeping.
func TestResetClearsFleetAndLocalMap(t *testing.T) {
	addrs := startTestFleet(t, 2, 1<<20)
	tp, err := NewTCPPager("d5", addrs, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	p := transport.NewRealProc()
	for i := 0; i < 4; i++ {
		if _, err := tp.StoreOut(p, i, entries("k", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.Reset(); err != nil {
		t.Fatal(err)
	}
	st := tp.Stats()
	if st.Resets != 1 || st.ResetLines != 4 {
		t.Errorf("stats = %+v, want 1 reset purging 4 lines", st)
	}
	// The local map is gone: old lines are unknown, not shadow-recovered.
	if _, err := tp.FetchIn(p, 0, memtable.Location{Node: 0}); err == nil {
		t.Error("pre-reset line still fetchable")
	}
	// And fresh store-outs work immediately in the clean namespace.
	loc, err := tp.StoreOut(p, 9, entries("fresh", 5))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := tp.FetchIn(p, 9, loc); err != nil || len(got) != 1 || got[0].Count != 5 {
		t.Fatalf("post-reset round trip = %v, %v", got, err)
	}
}

// holderOf returns where the pager's ledger places line: a fleet index, or
// onDisk.
func holderOf(tp *TCPPager, line int) int {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return tp.lines[line].holder
}
