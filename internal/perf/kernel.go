package perf

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/apriori"
	"repro/internal/candtab"
	"repro/internal/hpa"
	"repro/internal/htree"
	"repro/internal/itemset"
	"repro/internal/memtable"
	"repro/internal/quest"
	"repro/internal/rmtp"
	"repro/internal/transport"
)

// pass2Data is one pass-2 counting problem: a transaction set, the candidate
// pairs C2 derived from its pass-1 frequent items, and the support floor.
type pass2Data struct {
	txns     []itemset.Itemset
	cands    []itemset.Itemset
	minCount int
}

var (
	pass2Once    sync.Once
	pass2Skewed  pass2Data
	pass2Uniform pass2Data
)

// pass2Setup derives both kernel workloads once: a skewed quest workload
// (correlated patterns concentrate probes on hot candidates, the realistic
// case) and a uniform one (every candidate equally likely, the worst case
// for any cache: probes stride the whole table).
func pass2Setup() {
	pass2Once.Do(func() {
		p := quest.Defaults()
		p.Transactions = 4000
		p.Items = 400
		p.Patterns = 200
		p.AvgTxnLen = 10
		txns := quest.Generate(p)
		pass2Skewed = derivePass2(txns, len(txns)/100)

		pass2Uniform = derivePass2(uniformTxns(4000, 200, 10), 4000/100)
	})
}

// derivePass2 runs pass 1 and builds C2 = all pairs of frequent items,
// exactly as the miner's candidate generation would.
func derivePass2(txns []itemset.Itemset, minCount int) pass2Data {
	freq := frequentItems(txns, minCount)
	var cands []itemset.Itemset
	for i := 0; i < len(freq); i++ {
		for j := i + 1; j < len(freq); j++ {
			cands = append(cands, itemset.New(freq[i], freq[j]))
		}
	}
	return pass2Data{txns: txns, cands: cands, minCount: minCount}
}

// frequentItems is pass 1: the items of at least minCount transactions, in
// ascending order.
func frequentItems(txns []itemset.Itemset, minCount int) []itemset.Item {
	counts := make(map[itemset.Item]int)
	for _, t := range txns {
		for _, it := range t {
			counts[it]++
		}
	}
	var freq []itemset.Item
	for it, c := range counts {
		if c >= minCount {
			freq = append(freq, it)
		}
	}
	sort.Slice(freq, func(i, j int) bool { return freq[i] < freq[j] })
	return freq
}

// uniformTxns synthesizes transactions of distinct uniformly-drawn items
// with a fixed-seed LCG (deterministic across runs and architectures).
func uniformTxns(n, items, txnLen int) []itemset.Itemset {
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	out := make([]itemset.Itemset, n)
	for i := range out {
		seen := make(map[itemset.Item]bool, txnLen)
		row := make([]itemset.Item, 0, txnLen)
		for len(row) < txnLen {
			it := itemset.Item(next() % uint64(items))
			if seen[it] {
				continue
			}
			seen[it] = true
			row = append(row, it)
		}
		out[i] = itemset.New(row...)
	}
	return out
}

// benchPass2 runs one full pass-2 count — build the structure, scan every
// transaction, extract the frequent sets — per iteration, so construction,
// probing, and extraction are all on the clock for both kernels.
func benchPass2(b *testing.B, data *pass2Data, flat bool) {
	pass2Setup()
	b.ReportAllocs()
	b.ResetTimer()
	var frequent int
	for i := 0; i < b.N; i++ {
		if flat {
			tab := candtab.New(2, data.cands)
			for _, t := range data.txns {
				tab.CountTransaction(t)
			}
			large, _ := tab.Frequent(data.minCount)
			frequent = len(large)
		} else {
			tree := htree.New(2, data.cands)
			for _, t := range data.txns {
				tree.CountTransaction(t)
			}
			large, _ := tree.Frequent(data.minCount)
			frequent = len(large)
		}
	}
	b.ReportMetric(float64(len(data.cands)), "C2")
	b.ReportMetric(float64(frequent), "frequent")
}

// BenchPass2CountFlat is the flat open-addressing kernel on the skewed
// (realistic) workload — the default counting path since the rewrite.
func BenchPass2CountFlat(b *testing.B) { pass2Setup(); benchPass2(b, &pass2Skewed, true) }

// BenchPass2CountHTree is the legacy pointer-chasing hash tree on the same
// skewed workload, kept as the regression baseline.
func BenchPass2CountHTree(b *testing.B) { pass2Setup(); benchPass2(b, &pass2Skewed, false) }

// BenchPass2CountFlatUniform is the flat kernel under uniform probes — the
// cache-hostile case the SoA layout is built for.
func BenchPass2CountFlatUniform(b *testing.B) { pass2Setup(); benchPass2(b, &pass2Uniform, true) }

// BenchPass2CountHTreeUniform is the hash tree under uniform probes.
func BenchPass2CountHTreeUniform(b *testing.B) { pass2Setup(); benchPass2(b, &pass2Uniform, false) }

// memtableCand is one pass-2 candidate as the owning node's table sees it.
type memtableCand struct {
	line int
	key  []byte
}

var (
	memtableOnce  sync.Once
	memtableCands []memtableCand
)

// memtableLines is one node's share of the paper's 800,000 hash lines on a
// two-node fleet.
const memtableLines = 400_000

// memtableSetup derives node 0's pass-2 candidates on the fleet-swap
// problem: the paper's Quest workload at 1,000 transactions (seed 1), minsup
// 1%, C2 = all pairs of frequent items, placed on 800,000 global lines by
// the FNV pair hash and kept where line mod 2 = 0, exactly as HPA's
// candidate generation partitions them across two nodes.
func memtableSetup() {
	memtableOnce.Do(func() {
		p := quest.PaperParams(0.001)
		p.Seed = 1
		txns := quest.Generate(p)
		items := frequentItems(txns, apriori.MinCount(0.01, len(txns)))
		for i, a := range items {
			for _, b := range items[i+1:] {
				line := hpa.HashFNV.HashPairOf(a, b) % (2 * memtableLines)
				if line%2 == 0 {
					memtableCands = append(memtableCands, memtableCand{
						line: int(line / 2), key: itemset.AppendKey(nil, itemset.New(a, b)),
					})
				}
			}
		}
	})
}

// BenchMemtableBuildProbe is one unlimited pass-2 table on a fleet node per
// iteration: memtable.New with 400,000 lines, one Insert per candidate, then
// one Probe per candidate. It tracks what the line directory costs against
// the candidates it holds (B/op) and the probe path's cache behaviour.
func BenchMemtableBuildProbe(b *testing.B) {
	memtableSetup()
	costs := hpa.DefaultCPUCosts()
	p := transport.NewRealProc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := memtable.New(memtable.Config{
			Lines: memtableLines, ProbeCost: costs.Probe, InsertCost: costs.Insert,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range memtableCands {
			if err := tab.Insert(p, c.line, c.key); err != nil {
				b.Fatal(err)
			}
		}
		for _, c := range memtableCands {
			if err := tab.Probe(p, c.line, c.key); err != nil {
				b.Fatal(err)
			}
		}
		if hits := tab.Stats().Hits; hits != uint64(len(memtableCands)) {
			b.Fatalf("hits = %d, want %d", hits, len(memtableCands))
		}
	}
	b.ReportMetric(float64(len(memtableCands)), "C2")
}

// BenchRMTPUpdateBatchLoopback fires one 64-item OpUpdateBatch frame per
// iteration at a real loopback server, then drains the connection with a
// request/reply fetch so every send is actually serviced inside the timed
// region.
func BenchRMTPUpdateBatchLoopback(b *testing.B) {
	s := rmtp.NewServer(0)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := rmtp.Dial(s.Addr(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	entries := make([]memtable.Entry, 64)
	items := make([]rmtp.UpdateItem, 64)
	for i := range entries {
		key := fmt.Sprintf("key-%03d", i)
		entries[i] = memtable.Entry{Key: key}
		items[i] = rmtp.UpdateItem{Line: 0, Key: key}
	}
	if err := c.StoreAck(0, entries); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.UpdateBatch(items); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := c.Fetch(0); err != nil { // request/reply: drains the one-ways
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(64, "upd/op")
}
