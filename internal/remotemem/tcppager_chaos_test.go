package remotemem_test

import (
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

func newPager(t *testing.T, owner, addr string) *remotemem.TCPPager {
	t.Helper()
	tp, err := remotemem.NewTCPPager(owner, []string{addr},
		rmtp.Options{Timeout: 2 * time.Second, Retries: 2, Backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tp.Close() })
	return tp
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
	if err := c.Update(line, key); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat(); err != nil {
		t.Fatal(err)
	}
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
	if err := tp.Update(p, 2, loc, "k"); err != nil {
		t.Fatal(err)
	}
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
