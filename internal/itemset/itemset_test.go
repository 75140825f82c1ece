package itemset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewCanonicalizes(t *testing.T) {
	s := New(5, 1, 3, 1, 5)
	want := Itemset{1, 3, 5}
	if !s.Equal(want) {
		t.Errorf("New(5,1,3,1,5) = %v, want %v", s, want)
	}
	if !s.IsCanonical() {
		t.Error("result not canonical")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	prop := func(raw []int32) bool {
		s := New(raw...)
		return FromKey(s.Key()).Equal(s)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyUniqueness(t *testing.T) {
	a := New(1, 2)
	b := New(1, 3)
	c := New(1, 2, 3)
	if a.Key() == b.Key() || a.Key() == c.Key() || b.Key() == c.Key() {
		t.Error("distinct itemsets share keys")
	}
}

func TestContainsAll(t *testing.T) {
	s := New(1, 3, 5, 7, 9)
	cases := []struct {
		sub  Itemset
		want bool
	}{
		{New(), true},
		{New(1), true},
		{New(9), true},
		{New(3, 7), true},
		{New(1, 3, 5, 7, 9), true},
		{New(2), false},
		{New(1, 2), false},
		{New(9, 11), false},
	}
	for _, c := range cases {
		if got := s.ContainsAll(c.sub); got != c.want {
			t.Errorf("%v.ContainsAll(%v) = %v, want %v", s, c.sub, got, c.want)
		}
	}
}

func TestLessIsStrictWeakOrder(t *testing.T) {
	sets := []Itemset{New(1), New(1, 2), New(2), New(1, 3), New(), New(2, 1)}
	for _, a := range sets {
		if a.Less(a) {
			t.Errorf("%v.Less(itself) = true", a)
		}
		for _, b := range sets {
			if a.Less(b) && b.Less(a) {
				t.Errorf("Less not antisymmetric for %v, %v", a, b)
			}
			if !a.Less(b) && !b.Less(a) && !a.Equal(b) {
				t.Errorf("Less not total for %v, %v", a, b)
			}
		}
	}
}

func TestHashPairMatchesHash(t *testing.T) {
	prop := func(a, b int32) bool {
		if a == b {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return HashPair(lo, hi) == New(lo, hi).Hash()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPack2RoundTrip(t *testing.T) {
	prop := func(a, b int32) bool {
		x, y := Unpack2(Pack2(a, b))
		return x == a && y == b
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestWithout(t *testing.T) {
	s := New(1, 2, 3, 4)
	if got := s.Without(0); !got.Equal(New(2, 3, 4)) {
		t.Errorf("Without(0) = %v", got)
	}
	if got := s.Without(3); !got.Equal(New(1, 2, 3)) {
		t.Errorf("Without(3) = %v", got)
	}
	if !s.Equal(New(1, 2, 3, 4)) {
		t.Error("Without mutated the receiver")
	}
}

func TestSubsetsEnumeratesAllCombinations(t *testing.T) {
	txn := New(1, 2, 3, 4, 5)
	for k := 1; k <= 5; k++ {
		seen := map[string]bool{}
		Subsets(txn, k, func(s Itemset) {
			if !s.IsCanonical() {
				t.Fatalf("non-canonical subset %v", s)
			}
			seen[s.Clone().Key()] = true
		})
		if len(seen) != CountSubsets(5, k) {
			t.Errorf("k=%d: %d distinct subsets, want C(5,%d)=%d",
				k, len(seen), k, CountSubsets(5, k))
		}
	}
}

func TestSubsetsDegenerate(t *testing.T) {
	called := false
	Subsets(New(1, 2), 3, func(Itemset) { called = true })
	if called {
		t.Error("Subsets(k>n) invoked fn")
	}
	Subsets(New(1, 2), 0, func(Itemset) { called = true })
	if called {
		t.Error("Subsets(k=0) invoked fn")
	}
}

func TestCountSubsets(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120},
		{20, 2, 190}, {5, 6, 0}, {5, -1, 0},
	}
	for _, c := range cases {
		if got := CountSubsets(c.n, c.k); got != c.want {
			t.Errorf("CountSubsets(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

// naiveGen is the textbook O(|L|²·k) candidate generation used to verify
// AprioriGen: all unions of pairs of large (k-1)-itemsets with size k, whose
// every (k-1)-subset is large.
func naiveGen(large []Itemset) []Itemset {
	largeSet := NewSet()
	for _, l := range large {
		largeSet.Add(l)
	}
	seen := map[string]Itemset{}
	for i := range large {
		for j := range large {
			if i == j {
				continue
			}
			u := New(append(append([]Item{}, large[i]...), large[j]...)...)
			if len(u) != len(large[i])+1 {
				continue
			}
			ok := true
			for d := 0; d < len(u); d++ {
				if !largeSet.Has(u.Without(d)) {
					ok = false
					break
				}
			}
			if ok {
				seen[u.Key()] = u
			}
		}
	}
	out := make([]Itemset, 0, len(seen))
	for _, v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func TestAprioriGenAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		k1 := 1 + rng.Intn(3) // sizes 1..3
		n := rng.Intn(12)
		set := NewSet()
		for i := 0; i < n; i++ {
			items := make([]Item, 0, k1)
			for len(items) < k1 {
				items = append(items, Item(rng.Intn(8)))
			}
			if s := New(items...); len(s) == k1 {
				set.Add(s)
			}
		}
		large := set.Slice()
		got := AprioriGen(large).Itemsets()
		want := naiveGen(large)
		if len(got) != len(want) {
			t.Fatalf("trial %d (k-1=%d, |L|=%d): got %d candidates, want %d\nL=%v\ngot=%v\nwant=%v",
				trial, k1, len(large), len(got), len(want), large, got, want)
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("trial %d: candidate %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestAprioriGenPass2Complete(t *testing.T) {
	// From k=1 no pruning applies: C2 must be every pair.
	large := []Itemset{New(1), New(2), New(3), New(4)}
	got := AprioriGen(large)
	if got.Len() != 6 {
		t.Fatalf("C2 from 4 large 1-itemsets = %d candidates, want 6: %v", got.Len(), got.Itemsets())
	}
}

func TestAprioriGenEmpty(t *testing.T) {
	if got := AprioriGen(nil); got.Len() != 0 || got.Keys != nil {
		t.Errorf("AprioriGen(nil) = %v", got)
	}
}

// randomLarge draws a random canonical L(k-1): (k-1)-itemsets over a small
// universe, dense enough that many pairs join and many joins are pruned.
func randomLarge(rng *rand.Rand, k1, universe, n int) []Itemset {
	set := NewSet()
	for i := 0; i < n; i++ {
		items := make([]Item, 0, k1)
		for len(items) < k1 {
			items = append(items, Item(rng.Intn(universe)))
		}
		if s := New(items...); len(s) == k1 {
			set.Add(s)
		}
	}
	return set.Slice()
}

// TestAprioriGenPackedMatchesBruteForce: for k = 2…5 the packed join holds
// exactly the brute-force join-and-prune reference's keys, in order.
func TestAprioriGenPackedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for k := 2; k <= 5; k++ {
		for trial := 0; trial < 40; trial++ {
			large := randomLarge(rng, k-1, 7+k, 10+rng.Intn(60))
			got := AprioriGen(large)
			want := Pack(k, naiveGen(large))
			if got.K != k || string(got.Keys) != string(want.Keys) {
				t.Fatalf("k=%d trial %d: |L|=%d, got %d candidates %v, want %d %v",
					k, trial, len(large), got.Len(), got.Itemsets(), want.Len(), want.Itemsets())
			}
		}
	}
}

// TestAprioriGenPruneAllocatesPerCall: the k ≥ 3 prune allocates a fixed
// number of times per call, not once per subset check.
func TestAprioriGenPruneAllocatesPerCall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var large []Itemset // L2: 90% of the pairs of 80 items
	for a := 0; a < 80; a++ {
		for b := a + 1; b < 80; b++ {
			if rng.Intn(10) != 0 {
				large = append(large, New(Item(a), Item(b)))
			}
		}
	}
	c3 := AprioriGen(large)
	if c3.Len() < 20_000 || c3.Len() > 70_000 {
		t.Fatalf("%d candidates: the fixture no longer exercises many checks", c3.Len())
	}
	allocs := testing.AllocsPerRun(3, func() { AprioriGen(large) })
	if allocs > 40 {
		t.Errorf("AprioriGen allocated %.0f times for %d candidates, want at most 40", allocs, c3.Len())
	}
}

func TestPackedRoundTrip(t *testing.T) {
	sets := []Itemset{New(1, 2, 3), New(4, 5, 600), New(7, 8, 9)}
	p := Pack(3, sets)
	if p.Len() != 3 || (Packed{}).Len() != 0 {
		t.Fatalf("Len = %d", p.Len())
	}
	for i, s := range p.Itemsets() {
		if !s.Equal(sets[i]) || string(p.Key(i)) != sets[i].Key() || HashKey(p.Key(i)) != sets[i].Hash() {
			t.Errorf("itemset %d: %v, key %x", i, s, p.Key(i))
		}
	}
}

func TestSetSliceDeterministic(t *testing.T) {
	s := NewSet()
	s.Add(New(3))
	s.Add(New(1))
	s.Add(New(2))
	a := s.Slice()
	b := s.Slice()
	if !reflect.DeepEqual(a, b) {
		t.Error("Slice order not deterministic")
	}
	for i := 1; i < len(a); i++ {
		if !a[i-1].Less(a[i]) {
			t.Errorf("Slice not sorted: %v", a)
		}
	}
}
