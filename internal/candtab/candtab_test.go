package candtab

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/htree"
	"repro/internal/itemset"
	"repro/internal/quest"
)

func TestLineBasics(t *testing.T) {
	l := NewLine(0)
	if l.Len() != 0 {
		t.Fatalf("empty line Len = %d", l.Len())
	}
	if ok := l.AddBytes([]byte("missing"), 1); ok {
		t.Fatal("Add on empty line reported found")
	}
	l.Insert([]byte("alpha"))
	l.Insert([]byte("beta"))
	l.InsertCount("gamma", 7)
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	if !l.AddBytes([]byte("beta"), 2) || !l.AddBytes([]byte("beta"), 1) {
		t.Fatal("Add(beta) not found")
	}
	if c, ok := l.Get([]byte("beta")); !ok || c != 3 {
		t.Fatalf("Get(beta) = %d,%v want 3,true", c, ok)
	}
	if c, ok := l.Get([]byte("gamma")); !ok || c != 7 {
		t.Fatalf("Get(gamma) = %d,%v want 7,true", c, ok)
	}
	if _, ok := l.Get([]byte("delta")); ok {
		t.Fatal("Get(delta) found a missing key")
	}
	// Insertion order must be preserved for pager round-trips.
	want := []string{"alpha", "beta", "gamma"}
	for i, w := range want {
		if l.Key(i) != w {
			t.Fatalf("Key(%d) = %q, want %q", i, l.Key(i), w)
		}
	}
	if l.Count(0) != 0 || l.Count(1) != 3 || l.Count(2) != 7 {
		t.Fatalf("counts = %d,%d,%d", l.Count(0), l.Count(1), l.Count(2))
	}
}

func TestLineDuplicateFirstWins(t *testing.T) {
	l := NewLine(0)
	l.InsertCount("dup", 1)
	l.InsertCount("x", 10)
	l.InsertCount("dup", 100)
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (duplicates kept as entries)", l.Len())
	}
	if !l.AddBytes([]byte("dup"), 5) {
		t.Fatal("Add(dup) not found")
	}
	// Only the first occurrence is indexed and incremented.
	if l.Count(0) != 6 || l.Count(2) != 100 {
		t.Fatalf("counts = %d,%d want 6,100", l.Count(0), l.Count(2))
	}
	if c, _ := l.Get([]byte("dup")); c != 6 {
		t.Fatalf("Get(dup) = %d, want 6", c)
	}
}

func TestLineGrowth(t *testing.T) {
	l := NewLine(0)
	const n = 10_000
	for i := 0; i < n; i++ {
		l.InsertCount(fmt.Sprintf("key-%d", i), int32(i))
	}
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		if c, ok := l.Get([]byte(k)); !ok || c != int32(i) {
			t.Fatalf("Get(%s) = %d,%v want %d,true", k, c, ok, i)
		}
		if l.Key(i) != k {
			t.Fatalf("Key(%d) = %q, want %q (order not preserved)", i, l.Key(i), k)
		}
	}
	var buf [16]byte
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		copy(buf[:], k)
		if !l.AddBytes(buf[:len(k)], 1) {
			t.Fatalf("AddBytes(%s) not found", k)
		}
	}
	if l.Count(n-1) != int32(n-1)+1 {
		t.Fatalf("Count(%d) = %d", n-1, l.Count(n-1))
	}
	if l.MemBytes() <= 0 {
		t.Fatal("MemBytes not positive")
	}
}

// TestLineInterleavedInsertProbe exercises the lazy index across several
// insert→probe→insert rounds: each probe must index exactly the backlog,
// incremental placement must not disturb earlier entries, and duplicates
// spanning a sync boundary must still resolve to the first occurrence.
func TestLineInterleavedInsertProbe(t *testing.T) {
	l := NewLine(0)
	const rounds, perRound = 8, 37
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			l.Insert([]byte(fmt.Sprintf("k-%d-%d", r, i)))
		}
		// A duplicate of a key indexed in an earlier round.
		if r > 0 {
			l.Insert([]byte("k-0-0"))
		}
		for rr := 0; rr <= r; rr++ {
			if !l.AddBytes([]byte(fmt.Sprintf("k-%d-%d", rr, perRound-1)), 1) {
				t.Fatalf("round %d: key from round %d not found", r, rr)
			}
		}
	}
	// k-0-0 was re-inserted rounds-1 times after being indexed; the first
	// occurrence (entry 0) must own the index slot and all later copies
	// must still be dead entries with count 0.
	if !l.AddBytes([]byte("k-0-0"), 10) || l.Count(0) != 10 {
		t.Fatalf("first occurrence not incremented: count(0) = %d", l.Count(0))
	}
	for id := 1; id < l.Len(); id++ {
		if l.Key(id) == "k-0-0" && l.Count(id) != 0 {
			t.Fatalf("duplicate entry %d was incremented", id)
		}
	}
	want := rounds*perRound + rounds - 1
	if l.Len() != want {
		t.Fatalf("Len = %d, want %d", l.Len(), want)
	}
}

func TestLineDuplicateSurvivesRehash(t *testing.T) {
	l := NewLine(0)
	l.Insert([]byte("dup"))
	for i := 0; i < 500; i++ {
		l.Insert([]byte(fmt.Sprintf("filler-%d", i)))
	}
	l.Insert([]byte("dup"))
	for i := 500; i < 1000; i++ {
		l.Insert([]byte(fmt.Sprintf("filler-%d", i)))
	}
	l.AddBytes([]byte("dup"), 3)
	if l.Count(0) != 3 {
		t.Fatalf("Count(first dup) = %d, want 3", l.Count(0))
	}
	if l.Count(501) != 0 {
		t.Fatalf("Count(second dup) = %d, want 0", l.Count(501))
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
			tab := New(k, cands)
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
	tab := New(3, cands)
	tab.CountTransaction(itemset.New(1, 2))
	if got := tab.Count(cands[0]); got != 0 {
		t.Fatalf("count after short txn = %d, want 0", got)
	}
	tab.CountTransaction(itemset.New(1, 2, 3))
	if got := tab.Count(cands[0]); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}

func BenchmarkLineAdd(b *testing.B) {
	l := NewLine(0)
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
		l.Insert(keys[i])
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.AddBytes(keys[i&4095], 1)
	}
}
