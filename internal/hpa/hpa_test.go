package hpa

import (
	"testing"
	"testing/quick"

	"repro/internal/itemset"
	"repro/internal/memtable"
	"repro/internal/transport"
)

func TestLineMappingInvariants(t *testing.T) {
	// Every global line is owned by exactly one node, local indices are
	// dense, and localLines sums to TotalLines.
	for _, nodes := range []int{1, 2, 3, 7, 8} {
		for _, total := range []int{1, 5, 100, 801} {
			layout := transport.Layout{AppNodes: nodes}
			params := Params{TotalLines: total}
			sum := 0
			nodesArr := make([]*appNode, nodes)
			for id := 0; id < nodes; id++ {
				nodesArr[id] = &appNode{id: id, env: Env{Layout: layout}, params: params}
				sum += nodesArr[id].localLines()
			}
			if sum != total {
				t.Fatalf("nodes=%d total=%d: localLines sums to %d", nodes, total, sum)
			}
			for line := int32(0); line < int32(total); line++ {
				owner := nodesArr[0].ownerOf(line)
				if owner < 0 || owner >= nodes {
					t.Fatalf("line %d owned by %d", line, owner)
				}
				local := nodesArr[0].localLine(line)
				if local < 0 || local >= nodesArr[owner].localLines() {
					t.Fatalf("nodes=%d total=%d line=%d: local index %d out of range %d",
						nodes, total, line, local, nodesArr[owner].localLines())
				}
			}
		}
	}
}

func TestLineMappingBijective(t *testing.T) {
	// (owner, local) pairs must be unique across lines.
	layout := transport.Layout{AppNodes: 5}
	a := &appNode{id: 0, env: Env{Layout: layout}, params: Params{TotalLines: 997}}
	seen := map[[2]int]bool{}
	for line := int32(0); line < 997; line++ {
		key := [2]int{a.ownerOf(line), a.localLine(line)}
		if seen[key] {
			t.Fatalf("line %d collides at %v", line, key)
		}
		seen[key] = true
	}
}

func TestAppendKeyMatchesItemsetKey(t *testing.T) {
	// The sender appends keys into a block's buffer: a key appended after
	// others must be exactly the itemset's Key bytes, and the pass-2 pair
	// path (a two-item array) must agree with itemset.New.
	prop := func(prefix []byte, items []int32, x, y int32) bool {
		s := itemset.New(items...)
		got := itemset.AppendKey(append([]byte(nil), prefix...), s)
		if string(got) != string(prefix)+s.Key() {
			return false
		}
		if x == y {
			return true
		}
		a, b := x, y
		if a > b {
			a, b = b, a
		}
		pair := [2]itemset.Item{a, b}
		return string(itemset.AppendKey(nil, pair[:])) == itemset.New(a, b).Key()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestParamsValidate(t *testing.T) {
	good := Params{MinSupport: 0.1, TotalLines: 10}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{MinSupport: 0, TotalLines: 10},
		{MinSupport: 1.1, TotalLines: 10},
		{MinSupport: 0.1, TotalLines: 0},
		{MinSupport: 0.1, TotalLines: 10, LimitBytes: -1},
		{MinSupport: 0.1, TotalLines: 10, MaxPasses: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestCandidateCacheSharedAcrossNodes(t *testing.T) {
	pd := &Pending{}
	large := []itemset.Itemset{itemset.New(1), itemset.New(2), itemset.New(3)}
	a := pd.candidatesFor(2, large, 100)
	b := pd.candidatesFor(2, large, 100)
	if a != b {
		t.Error("cache recomputed for same pass")
	}
	sets := a.keys.Itemsets()
	if len(sets) != 3 || len(a.keys.Keys) != 3*8 || a.keys.K != 2 || len(a.lines) != 3 {
		t.Fatalf("candidates: %d sets", len(sets))
	}
	for i, s := range sets {
		if string(a.keys.Key(i)) != s.Key() {
			t.Errorf("key %d mismatch", i)
		}
		if a.lines[i] != int32(s.Hash()%100) {
			t.Errorf("line %d mismatch", i)
		}
	}
	c := pd.candidatesFor(3, sets, 100)
	if c == b {
		t.Error("cache not invalidated for new pass")
	}
}

func TestStartValidation(t *testing.T) {
	env := Env{Layout: transport.Layout{AppNodes: 2}}
	if _, err := Start(env, Params{MinSupport: 0.1, TotalLines: 10}); err == nil {
		t.Error("missing transactions accepted")
	}
	env.Txns = [][]itemset.Itemset{{itemset.New(1)}, {itemset.New(2)}}
	if _, err := Start(env, Params{MinSupport: 0, TotalLines: 10}); err == nil {
		t.Error("bad params accepted")
	}
	if _, err := Start(env, Params{
		MinSupport: 0.1, TotalLines: 10, LimitBytes: 100, Policy: memtable.SimpleSwap,
	}); err == nil {
		t.Error("limit without pagers accepted")
	}
}

func TestHashKinds(t *testing.T) {
	s := itemset.New(3, 500)
	if HashFNV.HashItemset(s) != s.Hash() {
		t.Error("FNV itemset hash mismatch")
	}
	if HashFNV.HashPairOf(3, 500) != itemset.HashPair(3, 500) {
		t.Error("FNV pair hash mismatch")
	}
	if HashAdditive.HashItemset(s) != HashAdditive.HashPairOf(3, 500) {
		t.Error("additive pair fast path disagrees with itemset path")
	}
	if HashFNV.HashKey([]byte(s.Key())) != s.Hash() || HashAdditive.HashKey([]byte(s.Key())) != HashAdditive.HashItemset(s) {
		t.Error("key hash disagrees with itemset hash")
	}
	if HashAdditive.HashItemset(s) != 3*8191+500 {
		t.Errorf("additive hash = %d", HashAdditive.HashItemset(s))
	}
	if HashFNV.String() == "" || HashAdditive.String() == "" {
		t.Error("empty hash names")
	}
}
