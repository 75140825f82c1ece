package chaos

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/memtable"
	"repro/internal/rmtp"
)

// stack starts a real server, a proxy in front of it, and a hardened client
// dialing through the proxy.
func stack(t *testing.T, opts rmtp.Options) (*ServerHandle, *Proxy, *rmtp.Client) {
	t.Helper()
	h, err := StartServer(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	p, err := NewProxy(h.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	c, err := rmtp.DialOptions(p.Addr(), "chaos-test", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return h, p, c
}

func defaultOpts() rmtp.Options {
	return rmtp.Options{
		Timeout: 500 * time.Millisecond,
		Retries: 3,
		Backoff: 2 * time.Millisecond,
		Jitter:  0.5,
		Seed:    7,
	}
}

// TestProxyTransparentRelay: with zero faults the proxy is invisible — the
// full op set works through it and both directions are counted.
func TestProxyTransparentRelay(t *testing.T) {
	h, p, c := stack(t, defaultOpts())
	entries := []memtable.Entry{{Key: "a", Count: 1}, {Key: "b", Count: 2}}
	if err := c.StoreAck(3, entries); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateBatch([]rmtp.UpdateItem{{Line: 3, Key: "a"}}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Fetch(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Count != 2 {
		t.Fatalf("entries = %v", got)
	}
	if occ := h.Server().Occupancy(); occ.Lines != 0 {
		t.Errorf("server holds %d lines after fetch", occ.Lines)
	}
	st := p.Stats()
	if st.Accepted != 1 || st.BytesUp == 0 || st.BytesDown == 0 {
		t.Errorf("proxy stats = %+v", st)
	}
}

// TestProxyLatency: injected latency is visible in the round trip.
func TestProxyLatency(t *testing.T) {
	_, p, c := stack(t, defaultOpts())
	if _, err := c.Stat(); err != nil { // warm the session
		t.Fatal(err)
	}
	p.SetFaults(Faults{Latency: 60 * time.Millisecond})
	start := time.Now()
	if _, err := c.Stat(); err != nil {
		t.Fatal(err)
	}
	// Request and reply each cross one pump: >= 2x the injected latency.
	if e := time.Since(start); e < 100*time.Millisecond {
		t.Errorf("latency-faulted RTT = %v, want >= ~120ms", e)
	}
}

// TestProxyResetAll: a mass RST mid-session; the retrying client recovers
// on a fresh connection.
func TestProxyResetAll(t *testing.T) {
	_, p, c := stack(t, defaultOpts())
	if err := c.StoreAck(1, []memtable.Entry{{Key: "x", Count: 5}}); err != nil {
		t.Fatal(err)
	}
	p.ResetAll()
	got, err := c.Fetch(1) // lease-then-delete + retries ride out the reset
	if err != nil {
		t.Fatalf("fetch after reset: %v", err)
	}
	if len(got) != 1 || got[0].Count != 5 {
		t.Fatalf("entries = %v", got)
	}
	if cuts := p.Stats().Cuts; cuts < 1 {
		t.Errorf("Cuts = %d, want >= 1", cuts)
	}
	if m := c.Metrics(); m.Connects < 2 {
		t.Errorf("Connects = %d, want a reconnect", m.Connects)
	}
}

// TestProxyBlackhole: a blackhole partitions without closing anything; the
// client's deadline surfaces the hang, and clearing the fault heals it.
func TestProxyBlackhole(t *testing.T) {
	opts := defaultOpts()
	opts.Timeout = 150 * time.Millisecond
	opts.Retries = 1
	_, p, c := stack(t, opts)
	if _, err := c.Stat(); err != nil {
		t.Fatal(err)
	}
	p.SetFaults(Faults{Blackhole: true})
	if _, err := c.Stat(); err == nil {
		t.Fatal("call through a blackhole succeeded")
	}
	if p.Stats().Blackholed == 0 {
		t.Error("nothing was blackholed")
	}
	p.SetFaults(Faults{})
	if _, err := c.Stat(); err != nil {
		t.Fatalf("call after heal: %v", err)
	}
}

// TestProxyRefuseNew: established sessions keep working; new ones die.
func TestProxyRefuseNew(t *testing.T) {
	_, p, c := stack(t, defaultOpts())
	if _, err := c.Stat(); err != nil {
		t.Fatal(err)
	}
	p.SetFaults(Faults{RefuseNew: true})
	if _, err := c.Stat(); err != nil {
		t.Errorf("established session failed under RefuseNew: %v", err)
	}
	opts := defaultOpts()
	opts.Retries = 1
	c2, err := rmtp.DialOptions(p.Addr(), "late", opts)
	if err == nil {
		_, err = c2.Stat()
		c2.Close()
	}
	if err == nil {
		t.Fatal("new session served while RefuseNew")
	}
	if p.Stats().Refused == 0 {
		t.Error("no refusals counted")
	}
}

// TestProxyCutAfterBytes: the connection is hard-reset mid-exchange once the
// byte budget is crossed; retries recover on a fresh connection (which gets
// a fresh meter).
func TestProxyCutAfterBytes(t *testing.T) {
	_, p, c := stack(t, defaultOpts())
	if err := c.StoreAck(1, []memtable.Entry{{Key: "x", Count: 9}}); err != nil {
		t.Fatal(err)
	}
	p.SetFaults(Faults{CutAfterBytes: 16})
	got, err := c.Fetch(1)
	if err != nil {
		t.Fatalf("fetch under cuts: %v", err)
	}
	if len(got) != 1 || got[0].Count != 9 {
		t.Fatalf("entries = %v", got)
	}
	if p.Stats().Cuts == 0 {
		t.Error("no cuts happened")
	}
}

// TestChunkDelayDeterministic: the per-chunk jitter is a pure function of
// the rng stream, so a fixed seed replays identical delays.
func TestChunkDelayDeterministic(t *testing.T) {
	f := Faults{Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond}
	a, b := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		da, db := chunkDelay(f, a), chunkDelay(f, b)
		if da != db {
			t.Fatalf("draw %d: %v != %v", i, da, db)
		}
		if da < 3*time.Millisecond || da > 7*time.Millisecond {
			t.Fatalf("delay %v outside latency ± jitter", da)
		}
	}
}

// TestRandomScheduleDeterministic: same seed, same schedule; and every
// schedule carries a crash with a later restart.
func TestRandomScheduleDeterministic(t *testing.T) {
	a := RandomSchedule(11, 200, 6)
	b := RandomSchedule(11, 200, 6)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	crashAt, restartAt := -1, -1
	for _, s := range a {
		if s.CrashServer {
			crashAt = s.AtOp
		}
		if s.RestartServer {
			restartAt = s.AtOp
		}
	}
	if crashAt < 0 || restartAt <= crashAt {
		t.Fatalf("crash at %d, restart at %d — want crash then restart", crashAt, restartAt)
	}
	for i := 1; i < len(a); i++ {
		if a[i].AtOp < a[i-1].AtOp {
			t.Fatal("schedule not sorted")
		}
	}
}

// TestServerHandleCrashRestart: a crashed server refuses traffic; the
// restarted one serves again on the same address, empty.
func TestServerHandleCrashRestart(t *testing.T) {
	h, err := StartServer(0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	addr := h.Addr()
	c, err := rmtp.DialOptions(addr, "direct", defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.StoreAck(1, []memtable.Entry{{Key: "x", Count: 1}}); err != nil {
		t.Fatal(err)
	}
	h.Crash()
	if _, err := c.Fetch(1); err == nil {
		t.Fatal("fetch served by a crashed server")
	}
	if err := h.Restart(); err != nil {
		t.Fatal(err)
	}
	if h.Addr() != addr {
		t.Fatalf("restarted on %s, want %s", h.Addr(), addr)
	}
	st, err := c.Stat() // client reconnects to the same address
	if err != nil {
		t.Fatal(err)
	}
	if st.Lines != 0 {
		t.Errorf("restarted server holds %d lines, want 0 (crash loses memory)", st.Lines)
	}
}
