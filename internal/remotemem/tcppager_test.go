package remotemem

import (
	"testing"
	"time"

	"repro/internal/memtable"
	"repro/internal/rmtp"
	"repro/internal/transport"
)

func startTestFleet(t *testing.T, n int, capacity int64) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		s := rmtp.NewServer(capacity)
		if err := s.Listen("127.0.0.1:0"); err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		t.Cleanup(func() { s.Close() })
		addrs[i] = s.Addr()
	}
	return addrs
}

func testOpts() rmtp.Options {
	return rmtp.Options{Timeout: 5 * time.Second, Retries: 2, Backoff: 10 * time.Millisecond}
}

func entries(kv ...any) []memtable.Entry {
	var out []memtable.Entry
	for i := 0; i < len(kv); i += 2 {
		out = append(out, memtable.Entry{Key: kv[i].(string), Count: int32(kv[i+1].(int))})
	}
	return out
}

func TestTCPPagerStoreFetchRoundTrip(t *testing.T) {
	addrs := startTestFleet(t, 2, 1<<20)
	tp, err := NewTCPPager("t1", addrs, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	p := transport.NewRealProc()
	in := entries("a", 1, "b", 2, "c", 3)
	loc, err := tp.StoreOut(p, 7, in)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Node < 0 || loc.Node >= 2 {
		t.Fatalf("location node %d outside fleet", loc.Node)
	}
	got, err := tp.FetchIn(p, 7, loc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != in[0] || got[2] != in[2] {
		t.Fatalf("fetched %v, stored %v", got, in)
	}
	st := tp.Stats()
	if st.Stores != 1 || st.Fetches != 1 || st.VerifiedFetches != 1 || st.Mismatches != 0 {
		t.Errorf("stats = %+v", st)
	}
	// The fetch was lease-then-delete: the line is gone.
	if _, err := tp.FetchIn(p, 7, loc); err == nil {
		t.Error("second fetch of a consumed line succeeded")
	}
}

func TestTCPPagerUpdateMirroredAndVerified(t *testing.T) {
	addrs := startTestFleet(t, 1, 1<<20)
	tp, err := NewTCPPager("t2", addrs, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	p := transport.NewRealProc()
	loc, err := tp.StoreOut(p, 1, entries("x", 10, "y", 20))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := tp.Update(p, 1, loc, "x"); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tp.FetchIn(p, 1, loc)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Count != 15 || got[1].Count != 20 {
		t.Fatalf("after updates: %v", got)
	}
	st := tp.Stats()
	if st.Updates != 5 || st.VerifiedFetches != 1 || st.Mismatches != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTCPPagerFailoverOnFullServer(t *testing.T) {
	// Server 0 can hold almost nothing; stores rotated to it must fail over
	// to server 1 instead of erroring out.
	tiny := startTestFleet(t, 1, 64)
	big := startTestFleet(t, 1, 1<<20)
	tp, err := NewTCPPager("t3", []string{tiny[0], big[0]}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	p := transport.NewRealProc()
	line := entries("aaaaaaaa", 1, "bbbbbbbb", 2, "cccccccc", 3)
	for i := 0; i < 6; i++ {
		if _, err := tp.StoreOut(p, i, line); err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
	}
	if err := tp.Flush(); err != nil {
		t.Fatal(err)
	}
	st := tp.Stats()
	if st.Stores != 6 {
		t.Errorf("stores = %d", st.Stores)
	}
	if st.Failovers == 0 {
		t.Error("no failovers despite a full server in rotation")
	}
	for i := 0; i < 6; i++ {
		got, err := tp.FetchIn(p, i, memtable.Location{})
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if len(got) != 3 {
			t.Fatalf("fetch %d returned %v", i, got)
		}
	}
}

func TestTCPPagerShadowRecoveryAfterServerDeath(t *testing.T) {
	srv := rmtp.NewServer(1 << 20)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.Timeout = 300 * time.Millisecond
	opts.Retries = 1
	tp, err := NewTCPPager("t4", []string{srv.Addr()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	p := transport.NewRealProc()
	in := entries("k1", 5, "k2", 7)
	loc, err := tp.StoreOut(p, 3, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Flush(); err != nil { // the store lands before the crash
		t.Fatal(err)
	}
	if err := tp.Update(p, 3, loc, "k2"); err != nil {
		t.Fatal(err)
	}
	srv.Close() // fail-stop: the remote copy is gone

	got, err := tp.FetchIn(p, 3, loc)
	if err != nil {
		t.Fatalf("fetch after crash: %v", err)
	}
	if len(got) != 2 || got[0].Count != 5 || got[1].Count != 8 {
		t.Fatalf("shadow recovery returned %v, want counts 5/8", got)
	}
	st := tp.Stats()
	if st.Recoveries == 0 {
		t.Errorf("no recovery recorded: %+v", st)
	}
}

func TestTCPPagerMigrateAll(t *testing.T) {
	addrs := startTestFleet(t, 2, 1<<20)
	tp, err := NewTCPPager("t5", addrs, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	p := transport.NewRealProc()
	locs := map[int]memtable.Location{}
	for i := 0; i < 8; i++ {
		loc, err := tp.StoreOut(p, i, entries("k", i+1))
		if err != nil {
			t.Fatal(err)
		}
		locs[i] = loc
	}
	// Round-robin put half the lines on server 0; push them all to 1.
	moved, err := tp.MigrateAll(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 4 {
		t.Fatalf("migrated %d lines, want 4", len(moved))
	}
	if st := tp.Stats(); st.Migrated != 4 {
		t.Errorf("Migrated = %d", st.Migrated)
	}
	// Every line — moved or not — must still fetch with its counts intact.
	for i := 0; i < 8; i++ {
		got, err := tp.FetchIn(p, i, locs[i])
		if err != nil {
			t.Fatalf("fetch %d after migration: %v", i, err)
		}
		if len(got) != 1 || got[0].Count != int32(i+1) {
			t.Fatalf("line %d = %v", i, got)
		}
	}
}

func TestTCPPagerBatchedUpdatesVerifiedAndCoalesced(t *testing.T) {
	addrs := startTestFleet(t, 1, 1<<20)
	tp, err := NewTCPPager("t6", addrs, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	p := transport.NewRealProc()
	loc, err := tp.StoreOut(p, 2, entries("x", 0, "y", 0))
	if err != nil {
		t.Fatal(err)
	}
	// Three full batches on the wire, the trailing 2 increments still queued
	// until the fetch flushes them (FIFO proves ordering).
	n := 3*updateBatchMax + 2
	for i := 0; i < n; i++ {
		key := "x"
		if i%5 == 0 {
			key = "y"
		}
		if err := tp.Update(p, 2, loc, key); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tp.FetchIn(p, 2, loc)
	if err != nil {
		t.Fatal(err)
	}
	ys := (n + 4) / 5
	if got[0].Count != int32(n-ys) || got[1].Count != int32(ys) {
		t.Fatalf("after batched updates: %v", got)
	}
	st := tp.Stats()
	if st.Updates != uint64(n) || st.VerifiedFetches != 1 || st.Mismatches != 0 || st.Taints != 0 {
		t.Errorf("stats = %+v", st)
	}
	if want := uint64(n/updateBatchMax + 1); st.UpdateFrames != want {
		t.Errorf("update frames = %d, want %d (%d full batches + 1 fetch-flush)", st.UpdateFrames, want, n/updateBatchMax)
	}
}

func TestTCPPagerBatchedUpdatesSurviveServerDeath(t *testing.T) {
	srv := rmtp.NewServer(1 << 20)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.Retries = 0
	opts.Timeout = 500 * time.Millisecond
	tp, err := NewTCPPager("t7", []string{srv.Addr()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	p := transport.NewRealProc()
	loc, err := tp.StoreOut(p, 3, entries("k", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Flush(); err != nil { // the store lands before the crash
		t.Fatal(err)
	}
	srv.Close()
	// Queue updates against the dead server; the full batch that fails to
	// send must taint the line so the shadow (which has every count) wins on
	// fetch.
	n := updateBatchMax + 2
	for i := 0; i < n; i++ {
		if err := tp.Update(p, 3, loc, "k"); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tp.FetchIn(p, 3, loc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Count != int32(1+n) {
		t.Fatalf("shadow recovery: %v, want k=%d", got, 1+n)
	}
	st := tp.Stats()
	if st.Taints == 0 || st.Recoveries != 1 {
		t.Errorf("stats = %+v, want taint + shadow recovery", st)
	}
}

// TestTCPPagerFetchInOfUnsentLine: a line fetched while its store window is
// still unsent ships in a one-line window first, so the fetch finds it on
// the server and verifies it.
func TestTCPPagerFetchInOfUnsentLine(t *testing.T) {
	srv := rmtp.NewServer(1 << 20)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	tp, err := NewTCPPager("t8", []string{srv.Addr()}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	p := transport.NewRealProc()
	for line := 0; line < 3; line++ {
		in := entries("a", line, "b", 2*line)
		loc, err := tp.StoreOut(p, line, in)
		if err != nil {
			t.Fatal(err)
		}
		if stores, _, _, _ := srv.Stats(); stores != uint64(line) {
			t.Fatalf("line %d: server saw %d stores before the fetch, want %d (the window is unsent)", line, stores, line)
		}
		got, err := tp.FetchIn(p, line, loc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0] != in[0] || got[1] != in[1] {
			t.Fatalf("line %d fetched as %v, stored %v", line, got, in)
		}
	}
	st := tp.Stats()
	if st.Stores != 3 || st.Fetches != 3 || st.VerifiedFetches != 3 || st.Recoveries != 0 {
		t.Errorf("stats = %+v, want 3 stores, 3 verified fetches", st)
	}
	if stores, fetches, _, _ := srv.Stats(); stores != 3 || fetches != 3 || srv.Metrics().HeldLines != 0 {
		t.Errorf("server: %d stores, %d fetches, %d held; want 3, 3, 0", stores, fetches, srv.Metrics().HeldLines)
	}
}

// TestTCPPagerUpdatesBehindUnsentStores: updates to lines whose store
// windows are unsent, enough to ship update frames, reach the server after
// the stores, so FetchAll verifies every line against its shadow.
func TestTCPPagerUpdatesBehindUnsentStores(t *testing.T) {
	addrs := startTestFleet(t, 2, 1<<20)
	tp, err := NewTCPPager("t9", addrs, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	p := transport.NewRealProc()
	const nLines = 10
	want := make(map[int]int32)
	var lines []memtable.Swapped
	for line := 0; line < nLines; line++ {
		loc, err := tp.StoreOut(p, line, entries("k", line))
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, memtable.Swapped{Line: line, Loc: loc})
		want[line] = int32(line)
	}
	n := 3*updateBatchMax + 5 // update frames ship while later stores wait
	for i := 0; i < n; i++ {
		line := i % nLines
		if err := tp.Update(p, line, lines[line].Loc, "k"); err != nil {
			t.Fatal(err)
		}
		want[line]++
		if i == n/2 {
			if _, err := tp.StoreOut(p, nLines, entries("late", 1)); err != nil {
				t.Fatal(err)
			}
			lines = append(lines, memtable.Swapped{Line: nLines, Loc: memtable.Location{}})
		}
	}
	got := make(map[int][]memtable.Entry)
	if err := tp.FetchAll(p, lines, func(line int, e []memtable.Entry) { got[line] = e }); err != nil {
		t.Fatal(err)
	}
	for line, count := range want {
		if len(got[line]) != 1 || got[line][0].Count != count {
			t.Errorf("line %d = %v, want count %d", line, got[line], count)
		}
	}
	if e := got[nLines]; len(e) != 1 || e[0] != (memtable.Entry{Key: "late", Count: 1}) {
		t.Errorf("late line = %v", e)
	}
	st := tp.Stats()
	if st.Stores != nLines+1 || st.VerifiedFetches != nLines+1 || st.Taints != 0 || st.Mismatches != 0 || st.Updates != uint64(n) {
		t.Errorf("stats = %+v, want %d stores and verified fetches, %d updates, no taint", st, nLines+1, n)
	}
}

// TestTCPPagerMigrateAllShipsUnsentWindow: lines still in the withdrawing
// server's store window ship before the migration, so they move too.
func TestTCPPagerMigrateAllShipsUnsentWindow(t *testing.T) {
	addrs := startTestFleet(t, 2, 1<<20)
	tp, err := NewTCPPager("t10", addrs, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	p := transport.NewRealProc()
	for i := 0; i < 8; i++ {
		if _, err := tp.StoreOut(p, i, entries("k", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	moved, err := tp.MigrateAll(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 4 {
		t.Fatalf("migrated %v, want the 4 lines of server 0's unsent window", moved)
	}
	for i := 0; i < 8; i++ {
		if h := holderOf(tp, i); h != 1 {
			t.Errorf("line %d held by %d after migration, want 1", i, h)
		}
		got, err := tp.FetchIn(p, i, memtable.Location{})
		if err != nil || len(got) != 1 || got[0].Count != int32(i+1) {
			t.Fatalf("line %d after migration = %v, %v", i, got, err)
		}
	}
	if st := tp.Stats(); st.Stores != 8 || st.VerifiedFetches != 8 || st.Migrated != 4 {
		t.Errorf("stats = %+v, want 8 stores, 8 verified fetches, 4 migrated", st)
	}
}

// TestTCPPagerResetWithUnsentWindows: Reset with store windows still unsent
// leaves no line on any server.
func TestTCPPagerResetWithUnsentWindows(t *testing.T) {
	var srvs []*rmtp.Server
	var addrs []string
	for i := 0; i < 2; i++ {
		s := rmtp.NewServer(1 << 20)
		if err := s.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		srvs, addrs = append(srvs, s), append(addrs, s.Addr())
	}
	tp, err := NewTCPPager("t11", addrs, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	p := transport.NewRealProc()
	// One full window ships on server 0; the rest wait on both servers.
	const nLines = 2*storeWindowMax + 6
	for i := 0; i < nLines; i++ {
		if _, err := tp.StoreOut(p, i, entries("k", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.Reset(); err != nil {
		t.Fatal(err)
	}
	for i, s := range srvs {
		if m := s.Metrics(); m.HeldLines != 0 || m.LeasedLines != 0 {
			t.Errorf("server %d after reset: %d held, %d leased", i, m.HeldLines, m.LeasedLines)
		}
	}
	if st := tp.Stats(); st.ResetLines != nLines {
		t.Errorf("reset purged %d lines, want %d", st.ResetLines, nLines)
	}
	if _, err := tp.FetchIn(p, 0, memtable.Location{}); err == nil {
		t.Error("pre-reset line still fetchable")
	}
}
