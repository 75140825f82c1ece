package oocmine

import (
	"path/filepath"
	"testing"

	"repro/internal/apriori"
	"repro/internal/itemset"
	"repro/internal/memtable"
	"repro/internal/quest"
	"repro/internal/remotemem"
	"repro/internal/rmtp"
)

func workload(t *testing.T) ([]itemset.Itemset, *apriori.Result) {
	t.Helper()
	p := quest.Defaults()
	p.Transactions = 1500
	p.Items = 150
	p.Patterns = 60
	p.AvgTxnLen = 8
	txns := quest.Generate(p)
	want, err := apriori.Mine(txns, apriori.Config{MinSupport: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return txns, want
}

// startServers starts n rmtp servers lending capacity bytes each and returns
// their addresses together with the servers themselves.
func startServers(t *testing.T, n int, capacity int64) ([]string, []*rmtp.Server) {
	t.Helper()
	var addrs []string
	var srvs []*rmtp.Server
	for i := 0; i < n; i++ {
		srv := rmtp.NewServer(capacity)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, srv.Addr())
		srvs = append(srvs, srv)
	}
	return addrs, srvs
}

// tcpPager dials a TCPPager to the given servers, closed at test end.
func tcpPager(t *testing.T, owner string, addrs []string) *remotemem.TCPPager {
	t.Helper()
	tp, err := remotemem.NewTCPPager(owner, addrs, rmtp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tp.Close() })
	return tp
}

// filePager creates a spill file in the test's temp dir, removed at test end.
func filePager(t *testing.T) *memtable.FilePager {
	t.Helper()
	fp, err := memtable.NewFilePager(filepath.Join(t.TempDir(), "spill.bin"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fp.Close() })
	return fp
}

// spilling is the heavy-swap configuration every spill test mines under.
func spilling(policy memtable.Policy, pager memtable.Pager) Config {
	return Config{
		MinSupport: 0.02,
		LimitBytes: 2 << 10, // tiny: heavy spilling
		Policy:     policy,
		Lines:      256,
		Pager:      pager,
	}
}

func TestUnlimitedMatchesApriori(t *testing.T) {
	txns, want := workload(t)
	got, stats, err := Mine(txns, Config{MinSupport: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := apriori.SameLarge(got, want); !ok {
		t.Fatalf("unlimited oocmine differs: %s", why)
	}
	if stats.Evictions != 0 || stats.Pagefaults != 0 {
		t.Errorf("unlimited run swapped: %+v", stats)
	}
}

func TestSpillOverTCPSimpleSwap(t *testing.T) {
	txns, want := workload(t)
	addrs, _ := startServers(t, 2, 0)
	got, stats, err := Mine(txns, spilling(memtable.SimpleSwap, tcpPager(t, "oocmine-test", addrs)))
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := apriori.SameLarge(got, want); !ok {
		t.Fatalf("TCP simple-swap differs: %s", why)
	}
	if stats.Evictions == 0 || stats.Pagefaults == 0 {
		t.Errorf("no swapping exercised: %+v", stats)
	}
	if stats.PeakBytes > 3<<10 {
		t.Errorf("peak resident %d far above budget", stats.PeakBytes)
	}
}

func TestSpillOverTCPRemoteUpdate(t *testing.T) {
	txns, want := workload(t)
	addrs, _ := startServers(t, 3, 0)
	got, stats, err := Mine(txns, spilling(memtable.RemoteUpdate, tcpPager(t, "oocmine-test", addrs)))
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := apriori.SameLarge(got, want); !ok {
		t.Fatalf("TCP remote-update differs: %s", why)
	}
	if stats.Updates == 0 {
		t.Errorf("no remote updates sent: %+v", stats)
	}
}

func TestSpillToFile(t *testing.T) {
	txns, want := workload(t)
	fp := filePager(t)
	got, _, err := Mine(txns, spilling(memtable.SimpleSwap, fp))
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := apriori.SameLarge(got, want); !ok {
		t.Fatalf("file spill differs: %s", why)
	}
	if st := fp.Stats(); st.Stores == 0 || st.Fetches == 0 {
		t.Errorf("spill file unused: %+v", st)
	}
}

func TestSpillToFileRemoteUpdate(t *testing.T) {
	txns, want := workload(t)
	fp := filePager(t)
	got, _, err := Mine(txns, spilling(memtable.RemoteUpdate, fp))
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := apriori.SameLarge(got, want); !ok {
		t.Fatalf("file remote-update differs: %s", why)
	}
	if st := fp.Stats(); st.Updates == 0 {
		t.Errorf("no in-file updates: %+v", st)
	}
}

func TestStoresRotate(t *testing.T) {
	txns, want := workload(t)
	addrs, srvs := startServers(t, 2, 0)
	got, _, err := Mine(txns, spilling(memtable.SimpleSwap, tcpPager(t, "rot", addrs)))
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := apriori.SameLarge(got, want); !ok {
		t.Fatalf("rotated spill differs: %s", why)
	}
	aStores, _, _, _ := srvs[0].Stats()
	bStores, _, _, _ := srvs[1].Stats()
	if aStores == 0 || bStores == 0 {
		t.Errorf("spill not rotated: A=%d B=%d", aStores, bStores)
	}
}

// TestResilientMineEndToEnd: mining through the fleet's resilient stack — a
// TCPPager (acked stores, shadow copies, verified fetches) in front of a
// spill file — matches in-core mining even when a tiny server keeps
// diverting lines to disk via capacity NACKs.
func TestResilientMineEndToEnd(t *testing.T) {
	txns, want := workload(t)
	addrs, _ := startServers(t, 1, 16*memtable.EntryMemBytes)
	tp := tcpPager(t, "miner", addrs)
	tp.SpillTo(filePager(t))

	got, _, err := Mine(txns, spilling(memtable.RemoteUpdate, tp))
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := apriori.SameLarge(got, want); !ok {
		t.Fatalf("resilient mining differs: %s", why)
	}
	if st := tp.Stats(); st.Mismatches != 0 {
		t.Errorf("Mismatches = %d, want 0", st.Mismatches)
	}
	if st := tp.Stats(); st.FallbackStores == 0 {
		t.Error("expected capacity failovers against a 16-entry server")
	}
}

func TestConfigValidation(t *testing.T) {
	txns, _ := workload(t)
	if _, _, err := Mine(txns, Config{MinSupport: 0}); err == nil {
		t.Error("zero support accepted")
	}
	if _, _, err := Mine(nil, Config{MinSupport: 0.1}); err == nil {
		t.Error("no transactions accepted")
	}
	if _, _, err := Mine(txns, Config{MinSupport: 0.1, LimitBytes: 100}); err == nil {
		t.Error("limit without pager accepted")
	}
	if _, _, err := Mine(txns, Config{MinSupport: 0.1, LimitBytes: -1}); err == nil {
		t.Error("negative limit accepted")
	}
}
