// Real-socket remote memory through the miner's own swap backend: start two
// rmtp servers on loopback (two memory-available nodes), spill a candidate
// hash table's lines to them over TCP via remotemem.TCPPager — the same
// pager cmd/hpaminer -transport=tcp swaps through — count with remote
// update operations, migrate one node's lines to the other mid-run, and
// collect the final counts. Every fetch is verified against the pager's
// shadow copy, so "exact" at the end is proven, not assumed.
//
//	go run ./examples/tcpswap
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/memtable"
	"repro/internal/remotemem"
	"repro/internal/rmtp"
	"repro/internal/transport"
)

func main() {
	// Two memory-available nodes lending 16 MB each.
	srvA := rmtp.NewServer(16 << 20)
	srvB := rmtp.NewServer(16 << 20)
	for _, s := range []*rmtp.Server{srvA, srvB} {
		if err := s.Listen("127.0.0.1:0"); err != nil {
			log.Fatal(err)
		}
		defer s.Close()
	}
	fmt.Printf("memory-available nodes: %s and %s\n", srvA.Addr(), srvB.Addr())

	// One pager = one application node's view of the whole fleet. Store-outs
	// rotate across the servers; every line keeps a client-side shadow.
	pager, err := remotemem.NewTCPPager("app-node-0", []string{srvA.Addr(), srvB.Addr()}, rmtp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer pager.Close()
	p := transport.NewRealProc()

	// Build 1,000 hash lines of candidate pairs and swap them all out.
	const lines = 1000
	const perLine = 6
	key := func(line, i int) string { return fmt.Sprintf("pair-%04d-%d", line, i) }
	locs := make([]memtable.Location, lines)
	for line := 0; line < lines; line++ {
		entries := make([]memtable.Entry, perLine)
		for i := range entries {
			entries[i] = memtable.Entry{Key: key(line, i)}
		}
		if locs[line], err = pager.StoreOut(p, line, entries); err != nil {
			log.Fatal(err)
		}
	}
	// Store-outs ship in pipelined windows of 64 acked stores; Flush sends
	// the partly filled last windows so the occupancy below counts them.
	if err := pager.Flush(); err != nil {
		log.Fatal(err)
	}
	occA, occB := srvA.Occupancy(), srvB.Occupancy()
	fmt.Printf("swapped out %d lines: %d to node A, %d to node B\n", lines, occA.Lines, occB.Lines)

	// Counting phase with remote update operations: stream increments.
	rng := rand.New(rand.NewSource(1))
	oracle := map[string]int32{}
	const updates = 50_000
	for u := 0; u < updates; u++ {
		line := rng.Intn(lines)
		k := key(line, rng.Intn(perLine))
		if err := pager.Update(p, line, locs[line], k); err != nil {
			log.Fatal(err)
		}
		oracle[k]++
		if u == updates/2 {
			// Node A withdraws mid-count: push its lines to node B. The
			// pager retargets them; no reconnect, no lost increments.
			moved, err := pager.MigrateAll(0, 1)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("node A withdrew after %d updates; migrated %d lines to node B\n", u+1, len(moved))
		}
	}

	// Collect: fetch every line back (lease-then-delete on the wire, each
	// reply verified against the shadow copy) and check the oracle.
	bad := 0
	for line := 0; line < lines; line++ {
		entries, err := pager.FetchIn(p, line, locs[line])
		if err != nil {
			log.Fatalf("collect line %d: %v", line, err)
		}
		for _, e := range entries {
			if e.Count != oracle[e.Key] {
				bad++
			}
		}
	}
	st := pager.Stats()
	occA, occB = srvA.Occupancy(), srvB.Occupancy()
	fmt.Printf("collected %d lines; count mismatches: %d\n", lines, bad)
	fmt.Printf("pager: %d stores, %d updates, %d fetches (%d verified, %d shadow divergences), %d migrated\n",
		st.Stores, st.Updates, st.Fetches, st.VerifiedFetches, st.Mismatches, st.Migrated)
	fmt.Printf("final occupancy: node A %d lines, node B %d lines\n", occA.Lines, occB.Lines)
	if bad == 0 && st.Mismatches == 0 {
		fmt.Println("every remotely accumulated count survived the migration — exact, and shadow-verified.")
	}
}
