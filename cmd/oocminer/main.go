// oocminer mines association rules with a bounded local candidate-memory
// budget, spilling to real remote-memory servers over TCP (rmtp) or to a
// local spill file — the paper's mechanism on live infrastructure.
//
//	# lend memory in two terminals:
//	rmserverd -addr 127.0.0.1:7009 &
//	rmserverd -addr 127.0.0.1:7010 &
//	# mine with a 1 MB local budget:
//	oocminer -input txns.bin -limit 1048576 -servers 127.0.0.1:7009,127.0.0.1:7010 -policy update
//
// With no -servers, ephemeral in-process servers are started (demo mode);
// with -spill FILE, the disk baseline is used instead.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro"
	"repro/internal/quest"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oocminer: ")
	var (
		input   = flag.String("input", "", "transaction file (questgen output); empty generates a workload")
		d       = flag.Int("d", 30_000, "generated transactions (when -input is empty)")
		n       = flag.Int("n", 1_000, "distinct items (when -input is empty)")
		seed    = flag.Int64("seed", 1, "workload seed")
		minsup  = flag.Float64("minsup", 0.002, "minimum support fraction")
		minconf = flag.Float64("minconf", 0.6, "minimum rule confidence")
		limit   = flag.Int64("limit", 1<<20, "local candidate memory budget, bytes (0 = unlimited)")
		servers = flag.String("servers", "", "comma-separated rmtp server addresses")
		spill   = flag.String("spill", "", "local spill file (disk baseline) instead of servers")
		policy  = flag.String("policy", "update", "swapped-line access: simple | update")
		rulesN  = flag.Int("rules", 8, "rules to print")
	)
	flag.Parse()

	cfg := repro.OOCConfig{
		MinSupport:    *minsup,
		MinConfidence: *minconf,
		LimitBytes:    *limit,
		SpillFile:     *spill,
	}
	switch *policy {
	case "simple":
		cfg.Policy = repro.SimpleSwapping
	case "update":
		cfg.Policy = repro.RemoteUpdate
	default:
		log.Fatalf("unknown policy %q", *policy)
	}
	if *servers != "" {
		cfg.Servers = strings.Split(*servers, ",")
	} else if *spill == "" && *limit > 0 {
		// Demo mode: lend memory from two in-process servers.
		for i := 0; i < 2; i++ {
			addr, closer, err := repro.StartMemoryServer("127.0.0.1:0", 256<<20)
			if err != nil {
				log.Fatal(err)
			}
			defer closer()
			cfg.Servers = append(cfg.Servers, addr)
		}
		log.Printf("demo mode: started in-process memory servers %v", cfg.Servers)
	}

	var raw [][]int
	if *input != "" {
		txns, err := quest.ReadFile(*input)
		if err != nil {
			log.Fatal(err)
		}
		for _, t := range txns {
			row := make([]int, len(t))
			for j, it := range t {
				row[j] = int(it)
			}
			raw = append(raw, row)
		}
	} else {
		p := quest.Defaults()
		p.Transactions = *d
		p.Items = *n
		p.Seed = *seed
		for _, t := range quest.Generate(p) {
			row := make([]int, len(t))
			for j, it := range t {
				row[j] = int(it)
			}
			raw = append(raw, row)
		}
	}

	start := time.Now()
	res, stats, err := repro.MineOutOfCore(cfg, raw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mined %d transactions in %.1fs wall time (budget %d KB, policy %s)\n",
		res.Transactions, time.Since(start).Seconds(), *limit>>10, *policy)
	fmt.Print(res.PassTable())
	fmt.Printf("\nswapping: %d evictions, %d faults, %d remote updates, peak resident %d KB\n",
		stats.Evictions, stats.Faults, stats.RemoteUpdates, stats.PeakResident>>10)
	if len(res.Rules) > 0 {
		fmt.Printf("\ntop rules:\n")
		for _, r := range res.Rules[:min(*rulesN, len(res.Rules))] {
			fmt.Println(" ", r)
		}
	}
}
