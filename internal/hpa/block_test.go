package hpa

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/itemset"
	"repro/internal/memtable"
	"repro/internal/transport"
)

// blockFixture is node 1 of a two-node run over 64 global lines, with an
// unlimited table whose global line 1 holds the 2-itemsets {1,2}, {3,4} and
// {5,6}.
func blockFixture(t testing.TB) (*appNode, *memtable.Table) {
	t.Helper()
	a := &appNode{id: 1, env: Env{Layout: transport.Layout{AppNodes: 2}}, params: Params{TotalLines: 64}}
	table, err := memtable.New(memtable.Config{Lines: a.localLines()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := transport.NewRealProc()
	for _, s := range []itemset.Itemset{{1, 2}, {3, 4}, {5, 6}} {
		if err := table.Insert(p, a.localLine(1), itemset.AppendKey(nil, s)); err != nil {
			t.Fatal(err)
		}
	}
	return a, table
}

// packKeys packs itemset keys back to back, as a sender's block holds them.
func packKeys(sets ...itemset.Itemset) []byte {
	var b []byte
	for _, s := range sets {
		b = itemset.AppendKey(b, s)
	}
	return b
}

func TestProbeBlockRejectsMalformed(t *testing.T) {
	two := packKeys(itemset.Itemset{1, 2}, itemset.Itemset{3, 4})
	cases := []struct {
		name  string
		k     int
		lines []int32
		keys  []byte
		want  string // error substring; "" = accepted
	}{
		{"valid", 2, []int32{1, 3}, two, ""},
		{"empty", 2, nil, nil, ""},
		{"keys short", 2, []int32{1, 3}, two[:15], "key bytes"},
		{"keys long", 2, []int32{1}, two, "key bytes"},
		{"stride of another pass", 3, []int32{1, 3}, two, "key bytes"},
		{"keys without lines", 2, nil, two, "key bytes"},
		{"line of another node", 2, []int32{1, 2}, two, "does not own"},
		{"negative line", 2, []int32{1, -1}, two, "does not own"},
		{"line past the table", 2, []int32{1, 65}, two, "does not own"},
	}
	p := transport.NewRealProc()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, table := blockFixture(t)
			err := a.probeBlock(p, c.k, table, dataBlock{From: 0, Lines: c.lines, Keys: c.keys})
			probes := table.Stats().Probes
			if c.want == "" {
				if err != nil {
					t.Fatalf("refused a valid block: %v", err)
				}
				if probes != uint64(len(c.lines)) {
					t.Fatalf("probes = %d, want %d", probes, len(c.lines))
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error = %v, want one naming %q", err, c.want)
			}
			if probes != 0 {
				t.Fatalf("a refused block made %d probes", probes)
			}
		})
	}
	// The valid block's first key is a candidate of line 1: one hit.
	a, table := blockFixture(t)
	if err := a.probeBlock(p, 2, table, dataBlock{Lines: []int32{1, 3}, Keys: two}); err != nil {
		t.Fatal(err)
	}
	if hits := table.Stats().Hits; hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
}

// FuzzProbeBlock feeds probeBlock blocks as a peer could send them: any
// lines, any key bytes, any pass. It must refuse a block with an error
// before probing, or probe every line of it; it must never panic.
func FuzzProbeBlock(f *testing.F) {
	lines := func(ls ...int32) []byte {
		var b []byte
		for _, l := range ls {
			b = binary.LittleEndian.AppendUint32(b, uint32(l))
		}
		return b
	}
	two := packKeys(itemset.Itemset{1, 2}, itemset.Itemset{3, 4})
	f.Add(uint8(2), lines(1, 3), two)
	f.Add(uint8(2), lines(1, 2), two)
	f.Add(uint8(2), lines(1, -1), two)
	f.Add(uint8(3), lines(1, 3), two)
	f.Add(uint8(2), lines(1, 3), two[:9])
	f.Add(uint8(1), lines(), []byte{})
	f.Fuzz(func(t *testing.T, k uint8, lineBytes, keys []byte) {
		a, table := blockFixture(t)
		blk := dataBlock{From: 0, Lines: make([]int32, len(lineBytes)/4), Keys: keys}
		for i := range blk.Lines {
			blk.Lines[i] = int32(binary.LittleEndian.Uint32(lineBytes[4*i:]))
		}
		err := a.probeBlock(transport.NewRealProc(), int(k%8)+1, table, blk)
		probes := table.Stats().Probes
		if err != nil && probes != 0 {
			t.Fatalf("refused block (%v) made %d probes", err, probes)
		}
		if err == nil && probes != uint64(len(blk.Lines)) {
			t.Fatalf("accepted block of %d lines made %d probes", len(blk.Lines), probes)
		}
	})
}

// sinkEndpoint is a fabric endpoint that only counts what is sent to it.
type sinkEndpoint struct {
	blocks, probes, dones int
}

func (e *sinkEndpoint) Self() int      { return 0 }
func (e *sinkEndpoint) BlockSize() int { return 4096 }

func (e *sinkEndpoint) Send(p transport.Proc, to, port int, payload any, size int) error {
	switch m := payload.(type) {
	case dataBlock:
		e.blocks++
		e.probes += len(m.Lines)
	case dataDone:
		e.dones++
	}
	return nil
}

func (e *sinkEndpoint) Recv(transport.Proc, int) (transport.Message, error) {
	return transport.Message{}, errors.New("sink endpoint: nothing to receive")
}

// TestPass2SenderAllocatesPerBlock checks that the pass-2 sender writes keys
// into its blocks: its allocations grow with the blocks it ships, not with
// the probes in them.
func TestPass2SenderAllocatesPerBlock(t *testing.T) {
	ep := &sinkEndpoint{}
	a := &appNode{
		id:     0,
		env:    Env{Layout: transport.Layout{AppNodes: 2}, Links: []transport.Endpoint{ep, nil}},
		params: Params{TotalLines: 1000, Costs: DefaultCPUCosts()},
	}
	var txns []itemset.Itemset
	for t := 0; t < 4; t++ {
		txn := make(itemset.Itemset, 60)
		for i := range txn {
			txn[i] = itemset.Item(100*t + 3*i)
		}
		txns = append(txns, txn)
	}
	p := transport.NewRealProc()
	send := func() {
		if err := a.runSender(p, 2, txns); err != nil {
			t.Fatal(err)
		}
	}
	send()
	blocks, probes := ep.blocks, ep.probes
	if probes != 4*60*59/2 || ep.dones != 2 {
		t.Fatalf("one scan shipped %d probes and %d done markers, want %d and 2", probes, ep.dones, 4*60*59/2)
	}
	if batch := blockItems(ep.BlockSize()); blocks < probes/batch {
		t.Fatalf("%d probes in %d blocks of at most %d", probes, blocks, batch)
	}
	allocs := testing.AllocsPerRun(5, send)
	t.Logf("%d probes in %d blocks: %.0f allocations per scan", probes, blocks, allocs)
	// Per block: its two buffers and its boxing into the message payload.
	// Per scan: the per-destination block table, the closures and the two
	// done markers.
	if limit := float64(3*blocks + 8); allocs > limit {
		t.Fatalf("pass-2 scan of %d probes in %d blocks made %.0f allocations, want at most %.0f",
			probes, blocks, allocs, limit)
	}
}
