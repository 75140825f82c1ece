package core

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apriori"
	"repro/internal/chaos"
	"repro/internal/memtable"
	"repro/internal/quest"
	"repro/internal/rmtp"
)

// The TCP soak tests run a real multi-process miner fleet: this test binary
// re-executes itself once per non-zero node (the hpaminer driver topology),
// SIGKILLs one child at a seeded killpoint, and asserts the supervised run
// still produces exactly the sequential Apriori result.

const (
	soakChildEnv = "REPRO_TCP_SOAK_CHILD" // marks the helper process
	soakNodeEnv  = "REPRO_TCP_SOAK_NODE"
	soakAppEnv   = "REPRO_TCP_SOAK_APP"
	soakCoordEnv = "REPRO_TCP_SOAK_COORD"
	soakCkptEnv  = "REPRO_TCP_SOAK_CKPT"
	soakGenEnv   = "REPRO_TCP_SOAK_GEN"
)

const soakAppNodes = 3

// soakTCPConfig is the shared per-process mining configuration; every process
// of the fleet must build an identical one (parent and children regenerate
// the same deterministic workload).
func soakTCPConfig() TCPConfig {
	return TCPConfig{
		AppNodes:      soakAppNodes,
		MinSupport:    0.02,
		TotalLines:    4000,
		Heartbeat:     25 * time.Millisecond,
		RestartLimit:  6,
		ClientOptions: rmtp.Options{Timeout: 2 * time.Second, Retries: 2, Backoff: 10 * time.Millisecond},
	}
}

// TestTCPSoakChildProcess is not a test: it is the body of one child miner
// process, entered only when the soak parent re-executes this binary with the
// child environment set.
func TestTCPSoakChildProcess(t *testing.T) {
	if os.Getenv(soakChildEnv) == "" {
		t.Skip("helper process body for the TCP soak tests")
	}
	node, _ := strconv.Atoi(os.Getenv(soakNodeEnv))
	app, _ := strconv.Atoi(os.Getenv(soakAppEnv))
	gen, _ := strconv.Atoi(os.Getenv(soakGenEnv))
	txns := quest.Generate(smallWorkload())
	parts := quest.Partition(txns, app)
	cfg := soakTCPConfig()
	cfg.AppNodes = app
	cfg.Node = node
	cfg.Coord = os.Getenv(soakCoordEnv)
	cfg.CheckpointDir = os.Getenv(soakCkptEnv)
	cfg.ResumeGen = gen
	if _, err := RunTCP(cfg, parts); err != nil {
		t.Fatalf("soak child node %d: %v", node, err)
	}
}

// runSupervisedSoak hosts node 0 with supervision armed, spawns the other
// nodes as real child processes (arming the kill spec on exactly one), and
// returns node 0's run info after every child has been reaped.
func runSupervisedSoak(t *testing.T, chaosNode int, chaosSpec string) *TCPRunInfo {
	t.Helper()
	txns := quest.Generate(smallWorkload())
	parts := quest.Partition(txns, soakAppNodes)
	ckptDir := t.TempDir()

	// Children never inherit this process's env for the soak/chaos knobs.
	baseEnv := make([]string, 0, len(os.Environ()))
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, chaos.KillEnv+"=") || strings.HasPrefix(kv, "REPRO_TCP_SOAK_") {
			continue
		}
		baseEnv = append(baseEnv, kv)
	}

	var (
		childMu  sync.Mutex
		children = make(map[int]*exec.Cmd)
		meshAddr string
	)
	spawn := func(node, gen int, spec string) error {
		cmd := exec.Command(os.Args[0], "-test.run=^TestTCPSoakChildProcess$")
		cmd.Env = append(append([]string(nil), baseEnv...),
			soakChildEnv+"=1",
			soakNodeEnv+"="+strconv.Itoa(node),
			soakAppEnv+"="+strconv.Itoa(soakAppNodes),
			soakCoordEnv+"="+meshAddr,
			soakCkptEnv+"="+ckptDir,
			soakGenEnv+"="+strconv.Itoa(gen),
		)
		if spec != "" {
			cmd.Env = append(cmd.Env, chaos.KillEnv+"="+spec)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		childMu.Lock()
		children[node] = cmd
		childMu.Unlock()
		return nil
	}

	cfg := soakTCPConfig()
	cfg.Node = 0
	cfg.CheckpointDir = ckptDir
	cfg.OnReady = func(addr string) {
		meshAddr = addr
		for i := 1; i < soakAppNodes; i++ {
			spec := ""
			if i == chaosNode {
				spec = chaosSpec
			}
			if err := spawn(i, 0, spec); err != nil {
				t.Errorf("spawn node %d: %v", i, err)
			}
		}
	}
	cfg.Respawn = func(rank, gen int) error {
		childMu.Lock()
		old := children[rank]
		delete(children, rank)
		childMu.Unlock()
		if old != nil {
			old.Process.Kill()
			if werr := old.Wait(); werr == nil {
				return ErrCleanExit
			}
		}
		// A replacement miner is never armed: the fault fires once.
		return spawn(rank, gen, "")
	}

	info, err := RunTCP(cfg, parts)
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	childMu.Lock()
	waiting := make([]*exec.Cmd, 0, len(children))
	for _, cmd := range children {
		waiting = append(waiting, cmd)
	}
	childMu.Unlock()
	for _, cmd := range waiting {
		// The result is already complete; a child dying on its way out (a
		// late chaos kill) is tolerated, matching the hpaminer driver.
		cmd.Wait()
	}
	return info
}

func TestTCPMinerKillMidPass2MatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process soak")
	}
	txns := quest.Generate(smallWorkload())
	want := sequential(t, txns, 0.02)

	// Node 2's sender dies at its 10th pass-2 block — mid-flight in the
	// heaviest pass, with counting traffic already delivered to survivors.
	info := runSupervisedSoak(t, 2, chaos.KPPass2Block+":10")

	if ok, why := apriori.SameLarge(info.Result.ToAprioriResult(), want); !ok {
		t.Fatalf("mining result after a miner SIGKILL differs from sequential Apriori: %s", why)
	}
	if info.Restarts < 1 {
		t.Errorf("supervisor performed %d respawns, want at least 1", info.Restarts)
	}
	if r := info.Result.PerNode[0].Resilience; r.Restarts < 1 {
		t.Errorf("node 0 recorded no restart in its resilience counters: %s", r.String())
	}
	t.Logf("soak: %d respawn(s); node 0 resilience: %s",
		info.Restarts, info.Result.PerNode[0].Resilience.String())
}

func TestTCPMinerKillDuringCheckpointWriteMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process soak")
	}
	txns := quest.Generate(smallWorkload())
	want := sequential(t, txns, 0.02)

	// Node 1 dies between its second checkpoint's temp write and rename —
	// the torn-write crash the atomic rename protects against. Its
	// replacement must resume from the intact pass-1 checkpoint.
	info := runSupervisedSoak(t, 1, chaos.KPCheckpointWrite+":2")

	if ok, why := apriori.SameLarge(info.Result.ToAprioriResult(), want); !ok {
		t.Fatalf("mining result after a mid-checkpoint SIGKILL differs from sequential Apriori: %s", why)
	}
	if info.Restarts < 1 {
		t.Errorf("supervisor performed %d respawns, want at least 1", info.Restarts)
	}
}

// TestTCPRunLeavesNoHungGoroutines: after a supervised run with a kill and
// recovery, this process's goroutine count settles back — nothing is parked
// forever on a dead peer.
func TestTCPRunLeavesNoHungGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process soak")
	}
	before := runtime.NumGoroutine()
	runSupervisedSoak(t, 2, chaos.KPPass2Block+":5")

	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before, %d five seconds after the run\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestTCPCapacityExhaustionCompletesViaSpill is the backpressure acceptance
// scenario: a server fleet far too small for the swap traffic NACKs most
// store-outs, and the run must complete — correctly — by spilling to the
// local disk tier instead of failing.
func TestTCPCapacityExhaustionCompletesViaSpill(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp backpressure soak")
	}
	txns := quest.Generate(smallWorkload())
	want := sequential(t, txns, 0.02)

	// Each server holds 10 entries and flags pressure past 60% — the fleet
	// saturates almost immediately under a 1200-byte per-node budget.
	var servers []string
	for i := 0; i < 2; i++ {
		srv := rmtp.NewServerOptions(240, rmtp.ServerOptions{SoftWatermark: 0.6})
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers = append(servers, srv.Addr())
	}

	cfg := soakTCPConfig()
	cfg.Node = -1 // all nodes in-process: backpressure needs no supervision
	cfg.Heartbeat = 0
	cfg.LimitBytes = 1200
	cfg.Policy = memtable.SimpleSwap
	cfg.Servers = servers
	cfg.SpillDir = t.TempDir()

	info, err := RunTCP(cfg, quest.Partition(txns, soakAppNodes))
	if err != nil {
		t.Fatalf("run against an exhausted fleet: %v", err)
	}
	if ok, why := apriori.SameLarge(info.Result.ToAprioriResult(), want); !ok {
		t.Fatalf("disk-fallback run differs from sequential Apriori: %s", why)
	}
	var nacks, spilled uint64
	for _, ps := range info.Pagers {
		if ps != nil {
			nacks += ps.CapacityNacks
			spilled += ps.FallbackStores
		}
	}
	if nacks == 0 {
		t.Error("fleet this small drew no capacity NACKs")
	}
	if spilled == 0 {
		t.Error("no store-outs diverted to the disk tier")
	}
	for id, ns := range info.Result.PerNode {
		var fb uint64
		if ps := info.Pagers[id]; ps != nil {
			fb = ps.FallbackStores
		}
		if fb != ns.Resilience.FallbackStores {
			t.Errorf("node %d: %d fallback stores in pager stats, %d in resilience counters",
				id, fb, ns.Resilience.FallbackStores)
		}
	}
	t.Logf("backpressure: %d capacity NACKs, %d lines spilled", nacks, spilled)
}
