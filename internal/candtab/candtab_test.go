package candtab

import (
	"math/rand"
	"testing"

	"repro/internal/htree"
	"repro/internal/itemset"
	"repro/internal/quest"
)

// TestLineDuplicateFirstWins: a key that occurs twice among the candidates
// is counted at its first occurrence only.
func TestLineDuplicateFirstWins(t *testing.T) {
	sets := []itemset.Itemset{{1, 2}, {10, 1000}, {1, 2}}
	tab := New(itemset.Pack(2, sets))
	for i := 0; i < 3; i++ {
		tab.CountTransaction(itemset.New(1, 2, 10, 1000))
	}
	if tab.counts[0] != 3 || tab.counts[2] != 0 || tab.Count(itemset.New(1, 2)) != 3 {
		t.Fatalf("first {1,2} counted %d, second %d", tab.counts[0], tab.counts[2])
	}
	if c := tab.Count(itemset.New(10, 1000)); c != 3 {
		t.Fatalf("count of {10,1000} = %d, want 3", c)
	}
	if c := tab.Count(itemset.New(1, 10)); c != 0 {
		t.Fatalf("count of a non-candidate = %d", c)
	}
}

// TestLineDuplicateSurvivesRehash: the first-occurrence rule holds when the
// two occurrences are far apart among hundreds of other candidates, so the
// index is sized for many keys and the duplicate's probe walks past others.
func TestLineDuplicateSurvivesRehash(t *testing.T) {
	sets := []itemset.Itemset{{1, 2}}
	for i := itemset.Item(0); i < 500; i++ {
		sets = append(sets, itemset.Itemset{10 + i, 1000 + i})
	}
	sets = append(sets, itemset.Itemset{1, 2})
	for i := itemset.Item(500); i < 1000; i++ {
		sets = append(sets, itemset.Itemset{10 + i, 1000 + i})
	}
	tab := New(itemset.Pack(2, sets))
	for i := 0; i < 3; i++ {
		tab.CountTransaction(itemset.New(1, 2))
	}
	if tab.counts[0] != 3 {
		t.Fatalf("count of first {1,2} = %d, want 3", tab.counts[0])
	}
	if tab.counts[501] != 0 {
		t.Fatalf("count of second {1,2} = %d, want 0", tab.counts[501])
	}
	if c := tab.Count(itemset.New(1, 2)); c != 3 {
		t.Fatalf("Count({1,2}) = %d, want 3", c)
	}
}

// genCandidates returns every distinct k-subset seen across a sample of the
// transactions — a realistic candidate population.
func genCandidates(txns []itemset.Itemset, k, limit int) []itemset.Itemset {
	seen := make(map[string]bool)
	var cands []itemset.Itemset
	for _, txn := range txns {
		if len(cands) >= limit {
			break
		}
		if len(txn) < k {
			continue
		}
		idx := make([]int, k)
		for i := range idx {
			idx[i] = i
		}
		for {
			c := make(itemset.Itemset, k)
			for i, j := range idx {
				c[i] = txn[j]
			}
			if key := c.Key(); !seen[key] {
				seen[key] = true
				cands = append(cands, c)
			}
			p := k - 1
			for p >= 0 && idx[p] == len(txn)-k+p {
				p--
			}
			if p < 0 {
				break
			}
			idx[p]++
			for q := p + 1; q < k; q++ {
				idx[q] = idx[q-1] + 1
			}
		}
	}
	return cands
}

// TestTableMatchesHTree is the property test required by the kernel swap:
// over randomized quest workloads, the flat table and the legacy hash tree
// must produce identical counts for every candidate, at every k.
func TestTableMatchesHTree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		p := quest.Defaults()
		p.Transactions = 300 + rng.Intn(500)
		p.Items = 40 + rng.Intn(120)
		p.Patterns = 30 + rng.Intn(80)
		p.AvgTxnLen = 4 + rng.Float64()*10
		p.Seed = rng.Int63()
		txns := quest.Generate(p)
		for k := 1; k <= 4; k++ {
			cands := genCandidates(txns, k, 2000)
			if len(cands) == 0 {
				continue
			}
			tab := New(itemset.Pack(k, cands))
			tree := htree.New(k, cands)
			for _, txn := range txns {
				tab.CountTransaction(txn)
				tree.CountTransaction(txn)
			}
			for _, c := range cands {
				want := tree.Lookup(c).Count
				if got := tab.Count(c); got != want {
					t.Fatalf("trial %d k=%d: count(%v) = %d, htree says %d",
						trial, k, c, got, want)
				}
			}
			wantLarge, wantCounts := tree.Frequent(2)
			gotLarge, gotCounts := tab.Frequent(2)
			if len(gotLarge) != len(wantLarge) {
				t.Fatalf("trial %d k=%d: Frequent sizes %d vs %d",
					trial, k, len(gotLarge), len(wantLarge))
			}
			for i := range wantLarge {
				if !gotLarge[i].Equal(wantLarge[i]) {
					t.Fatalf("trial %d k=%d: Frequent[%d] %v vs %v",
						trial, k, i, gotLarge[i], wantLarge[i])
				}
				if gotCounts[wantLarge[i].Key()] != wantCounts[wantLarge[i].Key()] {
					t.Fatalf("trial %d k=%d: Frequent count mismatch for %v",
						trial, k, wantLarge[i])
				}
			}
		}
	}
}

func TestTableShortTransactionIgnored(t *testing.T) {
	cands := []itemset.Itemset{itemset.New(1, 2, 3)}
	tab := New(itemset.Pack(3, cands))
	tab.CountTransaction(itemset.New(1, 2))
	if got := tab.Count(cands[0]); got != 0 {
		t.Fatalf("count after short txn = %d, want 0", got)
	}
	tab.CountTransaction(itemset.New(1, 2, 3))
	if got := tab.Count(cands[0]); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}

func BenchmarkTableAdd(b *testing.B) {
	sets := make([]itemset.Itemset, 4096)
	for i := range sets {
		sets[i] = itemset.Itemset{itemset.Item(i), itemset.Item(i + 5000)}
	}
	tab := New(itemset.Pack(2, sets))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab.add(tab.key(int32(i & 4095)))
	}
}
