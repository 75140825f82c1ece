// hpaminer runs one parallel mining configuration and prints the pass table,
// swapping statistics, and top association rules.
//
// Two transports are available. The default, -transport=sim, executes on the
// simulated ATM cluster under virtual time. -transport=tcp runs the same
// mining pipeline as a multi-process miner over a real TCP mesh on this
// machine, swapping candidate hash lines against a fleet of rmserverd
// processes (live ones via -servers, or an in-process fleet when omitted).
// The driver process hosts node 0 and re-executes itself once per remaining
// application node; every process regenerates the full workload from the
// shared flags, so the mined itemsets are identical to a sim run with the
// same parameters.
//
// Examples:
//
//	hpaminer -d 20000                                # no memory limit
//	hpaminer -d 20000 -limit 2000000 -device remote -policy update
//	hpaminer -input txns.bin -minsup 0.002 -device disk -limit 1500000
//	hpaminer -transport=tcp -app 4 -limit 2000000 -servers :7070,:7071
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/hpa"
	"repro/internal/itemset"
	"repro/internal/memtable"
	"repro/internal/quest"
	"repro/internal/rmtp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hpaminer: ")
	var (
		input     = flag.String("input", "", "transaction file (questgen output); empty generates a workload")
		d         = flag.Int("d", 50_000, "generated transactions (when -input is empty)")
		n         = flag.Int("n", 5_000, "distinct items (when -input is empty)")
		seed      = flag.Int64("seed", 1, "workload seed")
		minsup    = flag.Float64("minsup", 0.001, "minimum support fraction")
		minconf   = flag.Float64("minconf", 0.5, "minimum rule confidence")
		appNodes  = flag.Int("app", 8, "application execution nodes")
		memNodes  = flag.Int("mem", 16, "memory-available nodes (sim) / in-process rmtp servers (tcp)")
		limit     = flag.Int64("limit", 0, "per-node candidate memory limit in bytes (0 = unlimited)")
		device    = flag.String("device", "remote", "swap device when limited: remote | disk (sim only)")
		policy    = flag.String("policy", "simple", "swap policy: simple | update")
		rpm       = flag.Int("rpm", 7200, "swap disk profile: 7200 | 12000")
		topRules  = flag.Int("rules", 10, "how many rules to print (sim only)")
		traceDir  = flag.String("trace", "", "directory for a virtual-time trace of the run (sim only); empty disables tracing")
		transport = flag.String("transport", "sim", "execution backend: sim | tcp")
		servers   = flag.String("servers", "", "comma-separated rmserverd addresses (tcp; empty starts an in-process fleet)")
		largeOut  = flag.String("large-out", "", "write the large itemsets with supports to this file (sorted, diffable)")
		tcpNode   = flag.Int("tcp-node", -1, "internal: application node id hosted by this process (tcp)")
		tcpCoord  = flag.String("tcp-coord", "", "internal: mesh rendezvous address for tcp nodes > 0")
		supervise = flag.Bool("supervise", false, "tcp: arm mesh liveness, per-pass checkpoints, and miner respawn on crash")
		ckptDir   = flag.String("ckpt-dir", "", "tcp: checkpoint directory (default: a temp dir when -supervise is set)")
		restartLm = flag.Int("restart-limit", 8, "tcp: max miner respawns, and max recoveries per node, before the run is declared unrecoverable")
		heartbeat = flag.Duration("heartbeat", 250*time.Millisecond, "tcp: mesh heartbeat period under -supervise")
		spillDir  = flag.String("spill-dir", "", "tcp: arm a local-disk fallback tier for store-outs the fleet refuses")
		chaosKill = flag.String("chaos-kill", "", "tcp fault injection: node=K:point:N kills child K's process at the N-th hit of the named killpoint")
		resumeGen = flag.Int("tcp-resume-gen", 0, "internal: recovery generation of a respawned miner process")
	)
	flag.Parse()

	switch *transport {
	case "sim":
		runSim(simArgs{input: *input, d: *d, n: *n, seed: *seed, minsup: *minsup,
			minconf: *minconf, appNodes: *appNodes, memNodes: *memNodes, limit: *limit,
			device: *device, policy: *policy, rpm: *rpm, topRules: *topRules,
			traceDir: *traceDir, largeOut: *largeOut})
	case "tcp":
		runTCP(tcpArgs{input: *input, d: *d, n: *n, seed: *seed, minsup: *minsup,
			appNodes: *appNodes, memNodes: *memNodes, limit: *limit, device: *device,
			policy: *policy, servers: *servers, largeOut: *largeOut,
			node: *tcpNode, coord: *tcpCoord,
			supervise: *supervise, ckptDir: *ckptDir, restartLimit: *restartLm,
			heartbeat: *heartbeat, spillDir: *spillDir, chaosKill: *chaosKill,
			resumeGen: *resumeGen})
	default:
		log.Fatalf("unknown transport %q (want sim or tcp)", *transport)
	}
}

type simArgs struct {
	input              string
	d, n               int
	seed               int64
	minsup, minconf    float64
	appNodes, memNodes int
	limit              int64
	device, policy     string
	rpm, topRules      int
	traceDir, largeOut string
}

func runSim(a simArgs) {
	cfg := repro.DefaultConfig()
	cfg.Workload.Transactions = a.d
	cfg.Workload.Items = a.n
	cfg.Workload.Seed = a.seed
	cfg.MinSupport = a.minsup
	cfg.MinConfidence = a.minconf
	cfg.Cluster.AppNodes = a.appNodes
	cfg.Cluster.MemNodes = a.memNodes
	cfg.Cluster.MemoryLimitBytes = a.limit
	cfg.Cluster.DiskRPM = a.rpm
	if a.limit > 0 {
		switch a.device {
		case "remote":
			cfg.Cluster.Device = repro.RemoteMemory
		case "disk":
			cfg.Cluster.Device = repro.LocalDisk
		default:
			log.Fatalf("unknown device %q", a.device)
		}
	}
	switch a.policy {
	case "simple":
		cfg.Cluster.Policy = repro.SimpleSwapping
	case "update":
		cfg.Cluster.Policy = repro.RemoteUpdate
	default:
		log.Fatalf("unknown policy %q", a.policy)
	}
	cfg.TraceDir = a.traceDir

	start := time.Now()
	var res *repro.Result
	var err error
	if a.input != "" {
		txns, rerr := quest.ReadFile(a.input)
		if rerr != nil {
			log.Fatal(rerr)
		}
		raw := make([][]int, len(txns))
		for i, t := range txns {
			row := make([]int, len(t))
			for j, it := range t {
				row[j] = int(it)
			}
			raw[i] = row
		}
		res, err = repro.RunTransactions(cfg, raw)
	} else {
		res, err = repro.Run(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("mined %d transactions (minsup %.3f%%, minCount %d) on %d app + %d mem nodes\n",
		res.Transactions, 100*cfg.MinSupport, res.MinCount, a.appNodes, a.memNodes)
	fmt.Printf("virtual time: pass2 %.1fs, total %.1fs   (wall %.1fs)\n",
		res.Pass2Time.Seconds(), res.TotalTime.Seconds(), time.Since(start).Seconds())
	fmt.Println()
	fmt.Print(res.PassTable())
	if a.limit > 0 {
		fmt.Printf("\nswapping: policy=%s device=%s limit=%d B\n",
			cfg.Cluster.Policy, cfg.Cluster.Device, a.limit)
		fmt.Printf("  pagefaults %d (max/node %d), evictions %d, remote updates %d, migrations %d\n",
			res.Pagefaults, res.MaxPagefaultsPerNode, res.Evictions, res.RemoteUpdates, res.Migrations)
	}
	fmt.Printf("network: %d messages, %.1f MB\n", res.Messages, float64(res.NetworkBytes)/(1<<20))
	if a.topRules > 0 && len(res.Rules) > 0 {
		fmt.Printf("\ntop %d rules (of %d):\n", min(a.topRules, len(res.Rules)), len(res.Rules))
		for _, r := range res.TopRules(a.topRules) {
			fmt.Println(" ", r)
		}
	}
	if a.largeOut != "" {
		lines := make([]string, 0, len(res.LargeItemsets))
		for _, fi := range res.LargeItemsets {
			lines = append(lines, largeLine(fi.Items, fi.Support))
		}
		if err := writeLargeOut(a.largeOut, lines); err != nil {
			log.Fatal(err)
		}
	}
	os.Exit(0)
}

type tcpArgs struct {
	input              string
	d, n               int
	seed               int64
	minsup             float64
	appNodes, memNodes int
	limit              int64
	device, policy     string
	servers, largeOut  string
	node               int
	coord              string

	supervise    bool
	ckptDir      string
	restartLimit int
	heartbeat    time.Duration
	spillDir     string
	chaosKill    string
	resumeGen    int
}

// workload regenerates the transaction set from the shared flags — every
// process of a tcp run computes the identical partition table, mirroring
// repro.Run's generator parameters so sim and tcp mine the same data.
func (a tcpArgs) workload() ([]itemset.Itemset, error) {
	if a.input != "" {
		return quest.ReadFile(a.input)
	}
	wp := quest.Params{
		Transactions:   a.d,
		Items:          a.n,
		Patterns:       2_000,
		AvgTxnLen:      10,
		AvgPatternLen:  4,
		Correlation:    0.5,
		CorruptionMean: 0.5,
		CorruptionDev:  0.1,
		Seed:           a.seed,
	}
	if err := wp.Validate(); err != nil {
		return nil, err
	}
	return quest.Generate(wp), nil
}

func (a tcpArgs) config() core.TCPConfig {
	cfg := core.TCPConfig{
		AppNodes:   a.appNodes,
		Node:       a.node,
		Coord:      a.coord,
		MinSupport: a.minsup,
		TotalLines: 800_000,
		LimitBytes: a.limit,
		Policy:     memtable.SimpleSwap,
		ClientOptions: rmtp.Options{
			Timeout: 10 * time.Second,
			Retries: 3,
			Backoff: 50 * time.Millisecond,
			Jitter:  0.5,
		},
	}
	if a.policy == "update" {
		cfg.Policy = memtable.RemoteUpdate
	}
	if a.servers != "" {
		cfg.Servers = strings.Split(a.servers, ",")
	}
	if a.supervise {
		cfg.Heartbeat = a.heartbeat
		cfg.CheckpointDir = a.ckptDir
		cfg.RestartLimit = a.restartLimit
		cfg.ResumeGen = a.resumeGen
	}
	cfg.SpillDir = a.spillDir
	return cfg
}

// childArgs builds the flag list for one child miner process; extra flags
// (e.g. the resume generation of a respawn) are appended.
func (a tcpArgs) childArgs(node int, meshAddr string, servers []string, extra ...string) []string {
	args := []string{
		"-transport=tcp",
		fmt.Sprintf("-tcp-node=%d", node),
		"-tcp-coord=" + meshAddr,
		"-servers=" + strings.Join(servers, ","),
		"-input=" + a.input,
		fmt.Sprintf("-d=%d", a.d),
		fmt.Sprintf("-n=%d", a.n),
		fmt.Sprintf("-seed=%d", a.seed),
		fmt.Sprintf("-minsup=%g", a.minsup),
		fmt.Sprintf("-app=%d", a.appNodes),
		fmt.Sprintf("-limit=%d", a.limit),
		"-policy=" + a.policy,
	}
	if a.supervise {
		args = append(args,
			"-supervise",
			"-ckpt-dir="+a.ckptDir,
			fmt.Sprintf("-restart-limit=%d", a.restartLimit),
			fmt.Sprintf("-heartbeat=%s", a.heartbeat),
		)
	}
	if a.spillDir != "" {
		args = append(args, "-spill-dir="+a.spillDir)
	}
	return append(args, extra...)
}

// parseChaosKill splits "node=K:spec" into the target node and the
// REPRO_CHAOS_KILL spec armed on that child only.
func parseChaosKill(s string) (node int, spec string, err error) {
	rest, ok := strings.CutPrefix(s, "node=")
	if !ok {
		return 0, "", fmt.Errorf("chaos-kill %q: want node=K:point:N", s)
	}
	head, spec, ok := strings.Cut(rest, ":")
	if !ok || spec == "" {
		return 0, "", fmt.Errorf("chaos-kill %q: want node=K:point:N", s)
	}
	if _, err := fmt.Sscanf(head, "%d", &node); err != nil {
		return 0, "", fmt.Errorf("chaos-kill %q: bad node id: %w", s, err)
	}
	if _, err := chaos.ParseKillSpec(spec); err != nil {
		return 0, "", fmt.Errorf("chaos-kill %q: %w", s, err)
	}
	return node, spec, nil
}

func runTCP(a tcpArgs) {
	if a.policy != "simple" && a.policy != "update" {
		log.Fatalf("unknown policy %q", a.policy)
	}
	if a.limit > 0 && a.device != "remote" {
		log.Fatalf("transport=tcp swaps to remote memory only (got -device=%s)", a.device)
	}
	txns, err := a.workload()
	if err != nil {
		log.Fatal(err)
	}
	parts := quest.Partition(txns, a.appNodes)

	if a.node >= 0 {
		// Child process: host one application node, join the driver's mesh.
		info, err := core.RunTCP(a.config(), parts)
		if err != nil {
			log.Fatalf("node %d: %v", a.node, err)
		}
		log.Printf("node %d done: %d msgs, %d B sent", a.node, info.MeshMessages, info.MeshBytes)
		os.Exit(0)
	}

	// Driver process: host node 0, spawn the other nodes as child processes,
	// and start an in-process server fleet when none was supplied.
	if a.supervise && a.ckptDir == "" {
		dir, err := os.MkdirTemp("", "hpaminer-ckpt-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		a.ckptDir = dir
	}
	cfg := a.config()
	if a.limit > 0 && len(cfg.Servers) == 0 {
		nsrv := a.memNodes
		if nsrv < 1 {
			nsrv = 1
		}
		for i := 0; i < nsrv; i++ {
			srv := rmtp.NewServer(256 << 20)
			if err := srv.Listen("127.0.0.1:0"); err != nil {
				log.Fatalf("in-process rmtp server %d: %v", i, err)
			}
			defer srv.Close()
			cfg.Servers = append(cfg.Servers, srv.Addr())
		}
		log.Printf("started %d in-process rmtp servers", nsrv)
	}
	cfg.Node = 0

	chaosNode := -1
	chaosSpec := ""
	if a.chaosKill != "" {
		var err error
		chaosNode, chaosSpec, err = parseChaosKill(a.chaosKill)
		if err != nil {
			log.Fatal(err)
		}
	}
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	// Children never inherit the driver's kill spec; only the targeted node
	// gets one, and a respawned replacement runs unarmed.
	baseEnv := make([]string, 0, len(os.Environ()))
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, chaos.KillEnv+"=") {
			baseEnv = append(baseEnv, kv)
		}
	}

	var (
		childMu  sync.Mutex
		children = make(map[int]*exec.Cmd)
		meshAddr string
	)
	spawnChild := func(node int, armChaos bool, extra ...string) error {
		cmd := exec.Command(self, a.childArgs(node, meshAddr, cfg.Servers, extra...)...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		cmd.Env = baseEnv
		if armChaos {
			cmd.Env = append(append([]string(nil), baseEnv...), chaos.KillEnv+"="+chaosSpec)
		}
		setPdeathsig(cmd)
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawn node %d: %w", node, err)
		}
		childMu.Lock()
		children[node] = cmd
		childMu.Unlock()
		return nil
	}

	cfg.OnReady = func(addr string) {
		meshAddr = addr
		for i := 1; i < a.appNodes; i++ {
			if err := spawnChild(i, i == chaosNode); err != nil {
				log.Fatal(err)
			}
		}
	}
	if a.supervise {
		cfg.Respawn = func(rank, gen int) error {
			childMu.Lock()
			old := children[rank]
			delete(children, rank)
			childMu.Unlock()
			if old != nil {
				// Make sure the old process is really gone (a wedged-but-
				// alive child would fight its replacement for the rank),
				// then reap it. A clean exit is mining finishing, not a
				// crash: no replacement.
				old.Process.Kill()
				if werr := old.Wait(); werr == nil {
					return core.ErrCleanExit
				} else {
					log.Printf("supervisor: node %d process died (%v); respawning at generation %d", rank, werr, gen)
				}
			}
			return spawnChild(rank, false, fmt.Sprintf("-tcp-resume-gen=%d", gen))
		}
	}

	start := time.Now()
	info, err := core.RunTCP(cfg, parts)
	if err != nil {
		log.Fatal(err)
	}
	childMu.Lock()
	waiting := make(map[int]*exec.Cmd, len(children))
	for node, cmd := range children {
		waiting[node] = cmd
	}
	childMu.Unlock()
	for node, cmd := range waiting {
		if werr := cmd.Wait(); werr != nil {
			if a.supervise {
				// The mined result is already complete and verified; a child
				// dying on its way out (e.g. a late chaos kill) is reported,
				// not fatal.
				log.Printf("node %d process exited with error after completion: %v", node, werr)
			} else {
				log.Fatalf("node %d process failed: %v", node, werr)
			}
		}
	}
	res := info.Result

	fmt.Printf("mined %d transactions (minsup %.3f%%, minCount %d) on %d app nodes over tcp, %d rmtp servers\n",
		res.Transactions, 100*a.minsup, res.MinCount, a.appNodes, len(cfg.Servers))
	fmt.Printf("wall time: %.2fs\n\n", time.Since(start).Seconds())
	fmt.Printf("pass  candidates     large\n")
	for _, ps := range res.Passes {
		fmt.Printf("%4d  %10d  %8d\n", ps.K, ps.Candidates, ps.Large)
	}
	if a.limit > 0 {
		var agg hpa.NodeStats
		for _, ns := range res.PerNode {
			agg.Pagefaults += ns.Pagefaults
			agg.Evictions += ns.Evictions
			agg.Updates += ns.Updates
		}
		fmt.Printf("\nswapping: policy=%s device=rmtp limit=%d B\n", a.policy, a.limit)
		fmt.Printf("  pagefaults %d, evictions %d, remote updates %d\n",
			agg.Pagefaults, agg.Evictions, agg.Updates)
		var stores, fetches, verified, recoveries uint64
		for _, ps := range info.Pagers {
			if ps == nil {
				continue
			}
			stores += ps.Stores
			fetches += ps.Fetches
			verified += ps.VerifiedFetches
			recoveries += ps.Recoveries
		}
		fmt.Printf("  rmtp: %d stores, %d fetches (%d verified), %d shadow recoveries\n",
			stores, fetches, verified, recoveries)
		var spilled, nacks uint64
		for _, ps := range info.Pagers {
			if ps != nil {
				nacks += ps.CapacityNacks
				spilled += ps.FallbackStores
			}
		}
		if spilled > 0 || nacks > 0 {
			fmt.Printf("  backpressure: %d capacity NACKs, %d lines spilled to disk\n", nacks, spilled)
		}
	}
	if info.Restarts > 0 {
		fmt.Printf("resilience: %d miner respawn(s); per-node: ", info.Restarts)
		for id, ns := range res.PerNode {
			if id > 0 {
				fmt.Print("; ")
			}
			fmt.Printf("n%d[%s]", id, ns.Resilience.String())
		}
		fmt.Println()
	}
	fmt.Printf("network (node 0 tx): %d messages, %.1f MB\n",
		info.MeshMessages, float64(info.MeshBytes)/(1<<20))

	if a.largeOut != "" {
		var lines []string
		for k := 1; k < len(res.Large); k++ {
			for _, is := range res.Large[k] {
				items := make([]int, len(is))
				for j, it := range is {
					items[j] = int(it)
				}
				lines = append(lines, largeLine(items, res.Support[is.Key()]))
			}
		}
		if err := writeLargeOut(a.largeOut, lines); err != nil {
			log.Fatal(err)
		}
	}
	os.Exit(0)
}

// largeLine formats one frequent itemset as "i1 i2 ... : support".
func largeLine(items []int, support int) string {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = fmt.Sprint(it)
	}
	return fmt.Sprintf("%s : %d", strings.Join(parts, " "), support)
}

// writeLargeOut writes the itemset lines sorted, one per line — identical
// mining results produce byte-identical files regardless of transport.
func writeLargeOut(path string, lines []string) error {
	sort.Strings(lines)
	return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}
