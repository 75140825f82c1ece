package apriori

import (
	"math/rand"
	"testing"

	"repro/internal/itemset"
	"repro/internal/quest"
)

func toy() []itemset.Itemset {
	// The classic 4-transaction example.
	return []itemset.Itemset{
		itemset.New(1, 3, 4),
		itemset.New(2, 3, 5),
		itemset.New(1, 2, 3, 5),
		itemset.New(2, 5),
	}
}

func TestMineToyExample(t *testing.T) {
	res, err := Mine(toy(), Config{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// minCount = 2. L1 = {1},{2},{3},{5}; L2 = {1,3},{2,3},{2,5},{3,5}; L3 = {2,3,5}.
	wantL1 := []itemset.Itemset{itemset.New(1), itemset.New(2), itemset.New(3), itemset.New(5)}
	wantL2 := []itemset.Itemset{itemset.New(1, 3), itemset.New(2, 3), itemset.New(2, 5), itemset.New(3, 5)}
	wantL3 := []itemset.Itemset{itemset.New(2, 3, 5)}
	check := func(k int, want []itemset.Itemset) {
		got := res.Large[k]
		if len(got) != len(want) {
			t.Fatalf("L%d = %v, want %v", k, got, want)
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("L%d[%d] = %v, want %v", k, i, got[i], want[i])
			}
		}
	}
	check(1, wantL1)
	check(2, wantL2)
	check(3, wantL3)
	if res.Support[itemset.New(2, 3, 5).Key()] != 2 {
		t.Errorf("support({2,3,5}) = %d, want 2", res.Support[itemset.New(2, 3, 5).Key()])
	}
	if res.Support[itemset.New(2).Key()] != 3 {
		t.Errorf("support({2}) = %d, want 3", res.Support[itemset.New(2).Key()])
	}
}

func TestMineRejectsBadConfig(t *testing.T) {
	if _, err := Mine(toy(), Config{MinSupport: 0}); err == nil {
		t.Error("MinSupport 0 accepted")
	}
	if _, err := Mine(toy(), Config{MinSupport: 1.5}); err == nil {
		t.Error("MinSupport > 1 accepted")
	}
	if _, err := Mine(nil, Config{MinSupport: 0.5}); err == nil {
		t.Error("empty transactions accepted")
	}
}

func TestMinCount(t *testing.T) {
	cases := []struct {
		sup  float64
		n    int
		want int
	}{
		{0.5, 4, 2}, {0.001, 1000, 1}, {0.001, 1001, 2}, {0.25, 7, 2},
		{0.0001, 100, 1}, {1, 10, 10},
	}
	for _, c := range cases {
		if got := MinCount(c.sup, c.n); got != c.want {
			t.Errorf("MinCount(%g,%d) = %d, want %d", c.sup, c.n, got, c.want)
		}
	}
}

// TestCountingBackendsAgreeWithBruteForce checks both counting backends
// against the exhaustive lattice search on a Quest workload: three
// independent counters must find the same large itemsets.
func TestCountingBackendsAgreeWithBruteForce(t *testing.T) {
	p := quest.Defaults()
	p.Transactions = 800
	p.Items = 60
	p.Patterns = 40
	p.AvgTxnLen = 8
	txns := quest.Generate(p)
	want, err := BruteForceMine(txns, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Counting{FlatTable, HashTree} {
		got, err := Mine(txns, Config{MinSupport: 0.02, Counting: c})
		if err != nil {
			t.Fatal(err)
		}
		if ok, why := SameLarge(got, want); !ok {
			t.Fatalf("%v vs brute force: %s", c, why)
		}
	}
}

// TestFlatTableDefault pins the zero-value backend: the flat kernel is the
// default a zero Config gets.
func TestFlatTableDefault(t *testing.T) {
	var cfg Config
	if cfg.Counting != FlatTable {
		t.Fatalf("zero-value Counting = %v, want FlatTable", cfg.Counting)
	}
	if FlatTable.String() != "flat-table" {
		t.Fatalf("FlatTable.String() = %q", FlatTable.String())
	}
}

func TestMineAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		n := 20 + rng.Intn(60)
		txns := make([]itemset.Itemset, n)
		for i := range txns {
			size := 1 + rng.Intn(6)
			items := make([]itemset.Item, size)
			for j := range items {
				items[j] = itemset.Item(rng.Intn(12))
			}
			txns[i] = itemset.New(items...)
		}
		minSup := []float64{0.1, 0.2, 0.35}[rng.Intn(3)]
		got, err := Mine(txns, Config{MinSupport: minSup})
		if err != nil {
			t.Fatal(err)
		}
		want, err := BruteForceMine(txns, minSup)
		if err != nil {
			t.Fatal(err)
		}
		if ok, why := SameLarge(got, want); !ok {
			t.Fatalf("trial %d (minSup %g): Apriori disagrees with brute force: %s",
				trial, minSup, why)
		}
	}
}

func TestMaxPassesStopsEarly(t *testing.T) {
	res, err := Mine(toy(), Config{MinSupport: 0.5, MaxPasses: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Large) != 3 { // [unused, L1, L2]
		t.Fatalf("Large has %d levels, want 3", len(res.Large))
	}
	if len(res.Passes) != 2 {
		t.Fatalf("Passes = %d, want 2", len(res.Passes))
	}
}

func TestPassStatsShapeOnQuestData(t *testing.T) {
	// The paper's Table 2 signature: pass 2 has far more candidates than
	// any other pass, and the procedure terminates.
	p := quest.Defaults()
	p.Transactions = 2000
	p.Items = 300
	txns := quest.Generate(p)
	res, err := Mine(txns, Config{MinSupport: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Passes) < 3 {
		t.Fatalf("only %d passes; workload too trivial", len(res.Passes))
	}
	c2 := res.Passes[1].Candidates
	for i, ps := range res.Passes {
		if i == 1 {
			continue
		}
		if ps.Candidates >= c2 {
			t.Errorf("pass %d candidates %d >= pass 2 candidates %d; Table 2 shape violated",
				ps.K, ps.Candidates, c2)
		}
	}
	// L2 itemsets must truly meet minCount (spot check via brute force).
	if len(res.Large) > 2 && len(res.Large[2]) > 0 {
		sup := BruteForceSupport(txns, res.Large[2])
		for _, l := range res.Large[2] {
			if sup[l.Key()] != res.Support[l.Key()] {
				t.Errorf("support mismatch for %v: %d vs brute %d",
					l, res.Support[l.Key()], sup[l.Key()])
			}
			if sup[l.Key()] < res.MinCount {
				t.Errorf("%v reported large with support %d < minCount %d",
					l, sup[l.Key()], res.MinCount)
			}
		}
	}
}

func TestAllLarge(t *testing.T) {
	res, err := Mine(toy(), Config{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	all := res.AllLarge(1)
	if len(all) != 9 {
		t.Errorf("AllLarge(1) = %d itemsets, want 9", len(all))
	}
	if got := res.AllLarge(2); len(got) != 5 {
		t.Errorf("AllLarge(2) = %d itemsets, want 5", len(got))
	}
}

func TestSameLargeDetectsDifferences(t *testing.T) {
	a, _ := Mine(toy(), Config{MinSupport: 0.5})
	b, _ := Mine(toy(), Config{MinSupport: 0.75})
	if ok, _ := SameLarge(a, b); ok {
		t.Error("different thresholds reported as same results")
	}
	c, _ := Mine(toy(), Config{MinSupport: 0.5, Counting: HashTree})
	if ok, why := SameLarge(a, c); !ok {
		t.Errorf("identical results reported different: %s", why)
	}
}
