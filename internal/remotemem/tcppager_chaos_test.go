package remotemem_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/memtable"
	"repro/internal/remotemem"
	"repro/internal/rmtp"
	"repro/internal/transport"
)

// These tests drive a TCPPager through a chaos.Proxy or alongside a second
// raw client. They live in the external test package because chaos itself
// builds on remotemem.

func startServer(t *testing.T) *rmtp.Server {
	t.Helper()
	srv := rmtp.NewServer(1 << 20)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func startProxy(t *testing.T, upstream string) *chaos.Proxy {
	t.Helper()
	px, err := chaos.NewProxy(upstream, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { px.Close() })
	return px
}

func newPager(t *testing.T, owner string, addrs ...string) *remotemem.TCPPager {
	t.Helper()
	tp, err := remotemem.NewTCPPager(owner, addrs,
		rmtp.Options{Timeout: 2 * time.Second, Retries: 2, Backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tp.Close() })
	return tp
}

// settle ships the pager's unsent store windows and fails the test on a
// refusal.
func settle(t *testing.T, tp *remotemem.TCPPager) {
	t.Helper()
	if err := tp.Flush(); err != nil {
		t.Fatal(err)
	}
}

// sideUpdate applies one extra increment to owner's stored line behind the
// pager's back, over a second connection, and waits until the server has
// applied it (a server serves one connection's frames in order, so the
// Stat reply follows the update).
func sideUpdate(t *testing.T, addr, owner string, line int32, key string) {
	t.Helper()
	c, err := rmtp.Dial(addr, owner)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.UpdateBatch([]rmtp.UpdateItem{{Line: line, Key: key}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat(); err != nil {
		t.Fatal(err)
	}
}

// shipBatch queues updates for line until the pager's queue for its server
// fills and ships as one frame, returning how many updates that took.
func shipBatch(t *testing.T, tp *remotemem.TCPPager, line int, loc memtable.Location, key string) int {
	t.Helper()
	p := transport.NewRealProc()
	frames := tp.Stats().UpdateFrames
	n := 0
	for tp.Stats().UpdateFrames == frames {
		if err := tp.Update(p, line, loc, key); err != nil {
			t.Fatal(err)
		}
		n++
	}
	return n
}

// TestTCPPagerEpochChangeTaints: the connection turns over between a line's
// last write and its fetch, so one-way updates may have died with the old
// connection. The pager must distrust the remote copy and serve the shadow,
// even though the remote copy now differs from it.
func TestTCPPagerEpochChangeTaints(t *testing.T) {
	srv := startServer(t)
	px := startProxy(t, srv.Addr())
	tp := newPager(t, "epoch", px.Addr())
	p := transport.NewRealProc()

	loc, err := tp.StoreOut(p, 2, []memtable.Entry{{Key: "k", Count: 10}})
	if err != nil {
		t.Fatal(err)
	}
	filler, err := tp.StoreOut(p, 3, []memtable.Entry{{Key: "f", Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Line 2's last write is one update, shipped on the old connection in a
	// batch that line 3's updates fill.
	if err := tp.Update(p, 2, loc, "k"); err != nil {
		t.Fatal(err)
	}
	shipBatch(t, tp, 3, filler, "f")
	px.ResetAll() // the pager's connection dies; its next call reconnects
	sideUpdate(t, srv.Addr(), "epoch", 2, "k")

	got, err := tp.FetchIn(p, 2, loc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Count != 11 {
		t.Fatalf("entries = %v, want the shadow's count 11", got)
	}
	st := tp.Stats()
	if st.Taints != 1 || st.VerifiedFetches != 0 || st.Mismatches != 0 {
		t.Errorf("stats = %+v, want one taint and no verified fetch", st)
	}
}

// TestTCPPagerOneWaysOnTwoEpochsTaint: a line's update frames went out on two
// connections. The first frame may have died with its connection, and a fetch
// on the second cannot tell, so the pager must serve the shadow instead of
// trusting the remote copy. The side update on the key the pager never
// touches makes the remote copy differ from the shadow whether or not the
// reset dropped the first frame.
func TestTCPPagerOneWaysOnTwoEpochsTaint(t *testing.T) {
	srv := startServer(t)
	px := startProxy(t, srv.Addr())
	tp := newPager(t, "twoepochs", px.Addr())
	p := transport.NewRealProc()

	locA, err := tp.StoreOut(p, 1, []memtable.Entry{{Key: "a", Count: 1}, {Key: "b", Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	locB, err := tp.StoreOut(p, 2, []memtable.Entry{{Key: "k", Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	n := shipBatch(t, tp, 1, locA, "a") // line A's first frame, on connection 1
	px.ResetAll()
	// A write for line B dies with the connection; B's fetch reconnects.
	if err := tp.Update(p, 2, locB, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := tp.FetchIn(p, 2, locB); err != nil {
		t.Fatal(err)
	}
	if err := tp.Update(p, 1, locA, "a"); err != nil { // A's next frame: connection 2
		t.Fatal(err)
	}
	sideUpdate(t, srv.Addr(), "twoepochs", 1, "b")

	got, err := tp.FetchIn(p, 1, locA)
	if err != nil {
		t.Fatalf("fetch = %v, want the shadow", err)
	}
	want := []memtable.Entry{{Key: "a", Count: int32(2 + n)}, {Key: "b", Count: 1}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("entries = %v, want the shadow %v", got, want)
	}
	if st := tp.Stats(); st.Mismatches != 0 || st.VerifiedFetches != 0 {
		t.Errorf("stats = %+v, want no verified fetch and no mismatch", st)
	}
}

// TestTCPPagerMigrateAfterEpochChangeTaints: a line's update frame went out
// on a connection that has since turned over, and then the line migrates. The
// migration's reply confirms only the current connection, so the moved copy
// may lack that frame: the pager must serve the shadow, not verify against
// the destination.
func TestTCPPagerMigrateAfterEpochChangeTaints(t *testing.T) {
	from := startServer(t)
	dest := startServer(t)
	px := startProxy(t, from.Addr())
	tp := newPager(t, "migrate", px.Addr(), dest.Addr())
	p := transport.NewRealProc()

	var locs []memtable.Location // round-robin: lines 0 and 2 on server 0
	for line := 0; line < 3; line++ {
		loc, err := tp.StoreOut(p, line, []memtable.Entry{{Key: "a", Count: 1}, {Key: "b", Count: 1}})
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
	}
	n := shipBatch(t, tp, 0, locs[0], "a")
	px.ResetAll()
	if _, err := tp.FetchIn(p, 2, locs[2]); err != nil { // reconnects to server 0
		t.Fatal(err)
	}
	sideUpdate(t, from.Addr(), "migrate", 0, "b")
	if moved, err := tp.MigrateAll(0, 1); err != nil || len(moved) != 1 {
		t.Fatalf("migrate = %v, %v, want line 0 moved", moved, err)
	}

	got, err := tp.FetchIn(p, 0, locs[0])
	if err != nil {
		t.Fatalf("fetch = %v, want the shadow", err)
	}
	want := []memtable.Entry{{Key: "a", Count: int32(1 + n)}, {Key: "b", Count: 1}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("entries = %v, want the shadow %v", got, want)
	}
	if st := tp.Stats(); st.Mismatches != 0 {
		t.Errorf("stats = %+v, want no mismatch", st)
	}
}

// TestTCPPagerMismatchIsAnError: on an unchanged connection epoch the remote
// copy must equal the shadow. A difference is a transport bug, surfaced as an
// error and counted, not papered over.
func TestTCPPagerMismatchIsAnError(t *testing.T) {
	srv := startServer(t)
	tp := newPager(t, "mismatch", srv.Addr())
	p := transport.NewRealProc()

	loc, err := tp.StoreOut(p, 6, []memtable.Entry{{Key: "k", Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	settle(t, tp) // the side update must find the line stored
	sideUpdate(t, srv.Addr(), "mismatch", 6, "k")

	_, err = tp.FetchIn(p, 6, loc)
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("fetch = %v, want a divergence error", err)
	}
	if st := tp.Stats(); st.Mismatches != 1 {
		t.Errorf("Mismatches = %d, want 1", st.Mismatches)
	}
}

// TestTCPPagerUpdateSendFailureTaints: an update whose send fails taints the
// line at once. Later updates stay in the shadow only, and the shadow serves
// the fetch with every increment.
func TestTCPPagerUpdateSendFailureTaints(t *testing.T) {
	srv := startServer(t)
	px := startProxy(t, srv.Addr())
	tp := newPager(t, "taint", px.Addr())
	p := transport.NewRealProc()

	loc, err := tp.StoreOut(p, 4, []memtable.Entry{{Key: "k", Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	settle(t, tp) // the store is acked on the connection the reset kills
	px.ResetAll() // RST: the next one-way write on this connection fails
	for i := 0; i < 2; i++ {
		if err := tp.Update(p, 4, loc, "k"); err != nil {
			t.Fatalf("update %d: %v (a tainting update must not error)", i, err)
		}
	}
	got, err := tp.FetchIn(p, 4, loc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Count != 3 {
		t.Fatalf("entries = %v, want count 3 (shadow authoritative)", got)
	}
	if st := tp.Stats(); st.Taints != 1 || st.Recoveries != 1 {
		t.Errorf("stats = %+v, want one taint and one shadow recovery", st)
	}
	if _, _, updates, _ := srv.Stats(); updates != 0 {
		t.Errorf("server applied %d updates to a tainted line, want 0", updates)
	}
}

// TestTCPPagerDialFailureCleansUp: when one server of the fleet is
// unreachable, NewTCPPager fails and closes the connections it already made.
func TestTCPPagerDialFailureCleansUp(t *testing.T) {
	srv := startServer(t)
	if _, err := remotemem.NewTCPPager("x", []string{srv.Addr(), "127.0.0.1:1"}, rmtp.Options{}); err == nil {
		t.Fatal("unreachable server accepted")
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Metrics().ActiveConns != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions left open after a failed dial", srv.Metrics().ActiveConns)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPPagerFetchAllSurvivesCutMidWindow: the connection is cut while a
// window of fetch replies is in flight. The retried window re-serves the
// leased lines on a new connection, so no line is lost: every line comes
// back equal to its shadow, and the server ends holding nothing.
func TestTCPPagerFetchAllSurvivesCutMidWindow(t *testing.T) {
	srv := startServer(t)
	px := startProxy(t, srv.Addr())
	tp := newPager(t, "cut", px.Addr())
	p := transport.NewRealProc()

	const nLines = 20
	stored := make([][]memtable.Entry, nLines)
	wireBytes := 0
	for line := range stored {
		for k := 0; k < 40; k++ {
			stored[line] = append(stored[line], memtable.Entry{Key: fmt.Sprintf("line%03d-key%012d", line, k), Count: int32(k)})
		}
		wireBytes += 9 + len(memtable.AppendEntries(nil, stored[line]))
	}
	// The meter starts now: the stores carry about wireBytes up, so the cut
	// lands about half-way through the fetch replies coming down. The retried
	// window's connection carries less than the cut and is not cut.
	px.SetFaults(chaos.Faults{CutAfterBytes: int64(wireBytes * 3 / 2)})
	var lines []memtable.Swapped
	for line, entries := range stored {
		loc, err := tp.StoreOut(p, line, entries)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, memtable.Swapped{Line: line, Loc: loc})
	}

	got := make(map[int][]memtable.Entry)
	err := tp.FetchAll(p, lines, func(line int, entries []memtable.Entry) { got[line] = entries })
	if err != nil {
		t.Fatal(err)
	}
	if cuts := px.Stats().Cuts; cuts != 1 {
		t.Fatalf("proxy cut %d connections, want 1", cuts)
	}
	if len(got) != nLines {
		t.Fatalf("%d lines came back, want %d", len(got), nLines)
	}
	for line, want := range stored {
		if !equalEntries(got[line], want) {
			t.Errorf("line %d: %v, want the shadow %v", line, got[line], want)
		}
	}
	if m := tp.ClientMetrics(); m.Retries == 0 {
		t.Error("no retry: the cut did not land inside the window")
	}
	if st := tp.Stats(); st.Recoveries != 0 || st.Mismatches != 0 || st.Fetches != nLines {
		t.Errorf("stats = %+v, want %d remote fetches and no shadow recovery", st, nLines)
	}
	if m := srv.Metrics(); m.HeldLines != 0 || m.LeasedLines != 0 || m.Releases != nLines {
		t.Errorf("server: %d held / %d leased / %d releases, want 0/0/%d", m.HeldLines, m.LeasedLines, m.Releases, nLines)
	}
}

// TestTCPPagerFetchAllCountsLikeFetchIn: one batch holds a line whose update
// frame fails to send (tainted, served from the shadow), a line whose
// connection turned over since its write (epoch change), and a clean line on
// another server. FetchAll counts taints, recoveries and verified fetches
// exactly as fetching the same lines one by one with FetchIn does, and
// returns the same entries.
func TestTCPPagerFetchAllCountsLikeFetchIn(t *testing.T) {
	run := func(bulk bool) (remotemem.TCPPagerStats, map[int][]memtable.Entry) {
		far := startServer(t)
		near := startServer(t)
		px := startProxy(t, far.Addr())
		tp := newPager(t, "batch", px.Addr(), near.Addr())
		p := transport.NewRealProc()
		var lines []memtable.Swapped
		for line := 0; line < 3; line++ { // round robin: 0 far, 1 near, 2 far
			loc, err := tp.StoreOut(p, line, []memtable.Entry{{Key: "k", Count: int32(line)}})
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, memtable.Swapped{Line: line, Loc: loc})
		}
		settle(t, tp) // the stores are acked on the connection the reset kills
		px.ResetAll()
		if err := tp.Update(p, 0, lines[0].Loc, "k"); err != nil { // its frame will fail
			t.Fatal(err)
		}
		got := make(map[int][]memtable.Entry)
		if bulk {
			if err := tp.FetchAll(p, lines, func(line int, e []memtable.Entry) { got[line] = e }); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, sl := range lines {
				e, err := tp.FetchIn(p, sl.Line, sl.Loc)
				if err != nil {
					t.Fatal(err)
				}
				got[sl.Line] = e
			}
		}
		if held := far.Metrics().HeldLines + near.Metrics().HeldLines; held != 0 {
			t.Errorf("bulk=%v: servers still hold %d lines", bulk, held)
		}
		return tp.Stats(), got
	}
	perLine, perLineGot := run(false)
	bulk, bulkGot := run(true)
	if perLine.Taints != 2 || perLine.Recoveries != 1 || perLine.VerifiedFetches != 1 {
		t.Fatalf("per-line stats = %+v, want 2 taints, 1 recovery, 1 verified fetch", perLine)
	}
	if bulk != perLine {
		t.Errorf("FetchAll stats = %+v, FetchIn stats = %+v", bulk, perLine)
	}
	want := map[int]int32{0: 1, 1: 1, 2: 2}
	for line, count := range want {
		if !equalEntries(bulkGot[line], perLineGot[line]) || len(bulkGot[line]) != 1 || bulkGot[line][0].Count != count {
			t.Errorf("line %d: FetchAll %v, FetchIn %v, want count %d", line, bulkGot[line], perLineGot[line], count)
		}
	}
}

func equalEntries(a, b []memtable.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTCPPagerStoreWindowSurvivesCut: the connection is cut after a store
// window's frames are written and before its acks arrive. The retried window
// re-stores the same lines on a new connection, so no line is lost or
// counted twice: the server holds each line once, every line fetches back
// equal to what was stored, and the server ends holding nothing.
func TestTCPPagerStoreWindowSurvivesCut(t *testing.T) {
	srv := startServer(t)
	px := startProxy(t, srv.Addr())
	// A long backoff leaves time to lift the fault before the retry.
	tp, err := remotemem.NewTCPPager("cutstore", []string{px.Addr()},
		rmtp.Options{Timeout: 2 * time.Second, Retries: 2, Backoff: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tp.Close() })
	p := transport.NewRealProc()

	const nLines = 20 // one window, small enough to cross the proxy in one chunk
	stored := make([][]memtable.Entry, nLines)
	windowBytes := 0
	var lines []memtable.Swapped
	for line := range stored {
		for k := 0; k < 5; k++ {
			stored[line] = append(stored[line], memtable.Entry{Key: fmt.Sprintf("line%03d-key%03d", line, k), Count: int32(k + line)})
		}
		windowBytes += 9 + len(memtable.AppendEntries(nil, stored[line]))
		loc, err := tp.StoreOut(p, line, stored[line])
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, memtable.Swapped{Line: line, Loc: loc})
	}
	// The cut fires once the window's bytes have crossed; the latency holds
	// the server's acks back until the connection is gone.
	px.SetFaults(chaos.Faults{CutAfterBytes: int64(windowBytes), Latency: 20 * time.Millisecond})
	lifted := make(chan struct{})
	go func() {
		defer close(lifted)
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if px.Stats().Cuts > 0 {
				px.SetFaults(chaos.Faults{})
				return
			}
		}
	}()
	if err := tp.Flush(); err != nil {
		t.Fatal(err)
	}
	<-lifted
	if cuts := px.Stats().Cuts; cuts != 1 {
		t.Fatalf("proxy cut %d connections, want 1", cuts)
	}
	if m := tp.ClientMetrics(); m.Retries == 0 {
		t.Error("no retry: the cut did not land inside the window")
	}
	if m := srv.Metrics(); m.HeldLines != nLines {
		t.Errorf("server holds %d lines after the retried window, want %d", m.HeldLines, nLines)
	}
	if st := tp.Stats(); st.Stores != nLines || st.Failovers != 0 {
		t.Errorf("stats = %+v, want %d stores and no refusal", st, nLines)
	}

	got := make(map[int][]memtable.Entry)
	if err := tp.FetchAll(p, lines, func(line int, entries []memtable.Entry) { got[line] = entries }); err != nil {
		t.Fatal(err)
	}
	for line, want := range stored {
		if !equalEntries(got[line], want) {
			t.Errorf("line %d: %v, want %v", line, got[line], want)
		}
	}
	if st := tp.Stats(); st.VerifiedFetches != nLines || st.Recoveries != 0 || st.Mismatches != 0 {
		t.Errorf("stats = %+v, want %d verified fetches", st, nLines)
	}
	if m := srv.Metrics(); m.HeldLines != 0 || m.LeasedLines != 0 {
		t.Errorf("server: %d held / %d leased, want 0/0", m.HeldLines, m.LeasedLines)
	}
}

// TestTCPPagerRefusalMidWindow: a capacity NACK on one line in the middle of
// a store window, after updates to that line were queued, places that line
// on the next server — or, in a one-server fleet, on the disk tier — as its
// shadow, while the window's other lines are stored exactly once where they
// were sent. Every line fetches back with its updates.
func TestTCPPagerRefusalMidWindow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fleet int // 1: the refused line goes to disk; 2: to server 1
	}{{"next-server", 2}, {"disk", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			// Server 0 has room for its window's small lines but not for the
			// big one; server 1 has room for anything.
			small := rmtp.NewServer(6 * memtable.EntryMemBytes)
			if err := small.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { small.Close() })
			px := startProxy(t, small.Addr())
			addrs := []string{px.Addr()}
			var big *rmtp.Server
			if tc.fleet == 2 {
				big = startServer(t)
				addrs = append(addrs, big.Addr())
			}
			tp := newPager(t, "nack", addrs...)
			spill, err := memtable.NewFilePager(filepath.Join(t.TempDir(), "spill.dat"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { spill.Close() })
			tp.SpillTo(spill)
			p := transport.NewRealProc()

			// Lines rotate over the fleet; the refused line is the third of
			// server 0's window either way.
			nLines := 5 * tc.fleet
			refused := 2 * tc.fleet
			want := make(map[int][]memtable.Entry)
			var lines []memtable.Swapped
			for line := 0; line < nLines; line++ {
				in := []memtable.Entry{{Key: fmt.Sprintf("k%d", line), Count: int32(line)}}
				if line == refused {
					in = nil
					for k := 0; k < 8; k++ {
						in = append(in, memtable.Entry{Key: fmt.Sprintf("big%d", k), Count: 1})
					}
				}
				loc, err := tp.StoreOut(p, line, in)
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, memtable.Swapped{Line: line, Loc: loc})
				want[line] = append([]memtable.Entry(nil), in...)
			}
			for i := 0; i < 3; i++ {
				if err := tp.Update(p, refused, lines[refused].Loc, "big0"); err != nil {
					t.Fatal(err)
				}
				want[refused][0].Count++
			}
			if err := tp.Flush(); err != nil {
				t.Fatal(err)
			}

			st := tp.Stats()
			if st.CapacityNacks != 1 || st.Failovers != 1 {
				t.Errorf("stats = %+v, want one capacity NACK", st)
			}
			onServers := uint64(nLines)
			if tc.fleet == 1 {
				onServers--
				if st.FallbackStores != 1 || spill.Stats().Stores != 1 {
					t.Errorf("%d fallback stores, %d spill stores, want 1 and 1", st.FallbackStores, spill.Stats().Stores)
				}
			} else if st.FallbackStores != 0 {
				t.Errorf("%d fallback stores with a server to spare", st.FallbackStores)
			}
			if st.Stores != onServers {
				t.Errorf("%d stores, want %d", st.Stores, onServers)
			}
			smallStores, _, _, _ := small.Stats()
			if m := small.Metrics(); smallStores != 5-1 || m.HeldLines != 5-1 {
				t.Errorf("server 0: %d stores, %d held, want 4 and 4", smallStores, m.HeldLines)
			}
			if big != nil {
				if bigStores, _, _, _ := big.Stats(); bigStores != 5+1 || big.Metrics().HeldLines != 5+1 {
					t.Errorf("server 1: %d stores, %d held, want 6 and 6", bigStores, big.Metrics().HeldLines)
				}
			}

			got := make(map[int][]memtable.Entry)
			if err := tp.FetchAll(p, lines, func(line int, e []memtable.Entry) { got[line] = e }); err != nil {
				t.Fatal(err)
			}
			for line, w := range want {
				if !equalEntries(got[line], w) {
					t.Errorf("line %d: %v, want %v", line, got[line], w)
				}
			}
			if st := tp.Stats(); st.VerifiedFetches != onServers || st.Mismatches != 0 || st.Recoveries != 0 {
				t.Errorf("stats = %+v, want %d verified fetches", st, onServers)
			}
		})
	}
}
