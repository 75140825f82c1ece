package rmtp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/memtable"
)

func TestUpdateBatchRoundTrip(t *testing.T) {
	cases := [][]UpdateItem{
		nil,
		{{Line: 0, Key: ""}},
		{{Line: 3, Key: "abc"}},
		{{Line: -1, Key: "neg"}, {Line: 1 << 30, Key: "big"}},
		{{Line: 7, Key: "k1"}, {Line: 7, Key: "k2"}, {Line: 8, Key: "k1"}},
	}
	for i, items := range cases {
		buf := EncodeUpdateBatch(items)
		got, err := DecodeUpdateBatch(buf)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if len(got) != len(items) {
			t.Fatalf("case %d: %d items, want %d", i, len(got), len(items))
		}
		for j := range items {
			if got[j] != items[j] {
				t.Fatalf("case %d item %d: %+v vs %+v", i, j, got[j], items[j])
			}
		}
	}
}

func TestUpdateBatchRejectsMalformed(t *testing.T) {
	good := EncodeUpdateBatch([]UpdateItem{{Line: 1, Key: "abc"}, {Line: 2, Key: "de"}})
	// Truncations at every prefix must error, never panic or mis-parse.
	for n := 0; n < len(good); n++ {
		if _, err := DecodeUpdateBatch(good[:n]); err == nil {
			// A prefix that still happens to parse must not claim both items.
			items, _ := DecodeUpdateBatch(good[:n])
			if len(items) == 2 {
				t.Fatalf("truncation to %d bytes decoded both items", n)
			}
		}
	}
	// Trailing garbage is rejected.
	if _, err := DecodeUpdateBatch(append(append([]byte{}, good...), 0xff)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Implausible count is rejected before allocation.
	huge := binary.AppendUvarint(nil, maxFrame)
	if _, err := DecodeUpdateBatch(huge); err == nil {
		t.Fatal("implausible count accepted")
	}
}

// FuzzUpdateBatch round-trips: every encoded batch decodes to itself, and
// arbitrary bytes never panic the decoder.
func FuzzUpdateBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeUpdateBatch([]UpdateItem{{Line: 1, Key: "ab"}}))
	f.Add(EncodeUpdateBatch([]UpdateItem{{Line: -5, Key: ""}, {Line: 9, Key: "xyz"}}))
	f.Add([]byte{0x02, 0x00, 0x01, 0x41})
	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := DecodeUpdateBatch(data)
		if err != nil {
			return
		}
		re := EncodeUpdateBatch(items)
		back, err := DecodeUpdateBatch(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(back) != len(items) {
			t.Fatalf("re-decode %d items, want %d", len(back), len(items))
		}
		for i := range items {
			if back[i] != items[i] {
				t.Fatalf("item %d: %+v vs %+v", i, back[i], items[i])
			}
		}
		// Canonical encodings are stable: decode(encode(x)) == x implies
		// encode(decode(canonical)) == canonical.
		if bytes.Equal(re, data) {
			return
		}
	})
}

// TestUpdateBatchLoopback drives a real server: a coalesced frame must land
// every increment on its own line and key.
func TestUpdateBatchLoopback(t *testing.T) {
	srv := NewServer(0)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), "owner-a")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.StoreAck(1, []memtable.Entry{{Key: "aa"}, {Key: "bb"}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.StoreAck(2, []memtable.Entry{{Key: "cc"}}); err != nil {
		t.Fatal(err)
	}
	var items []UpdateItem
	for i := 0; i < 10; i++ {
		items = append(items, UpdateItem{Line: 1, Key: "aa"})
	}
	items = append(items,
		UpdateItem{Line: 1, Key: "bb"},
		UpdateItem{Line: 2, Key: "cc"},
		UpdateItem{Line: 2, Key: "absent"}, // dropped: no such key
		UpdateItem{Line: 9, Key: "aa"},     // dropped: no such line
	)
	if err := cl.UpdateBatch(items); err != nil {
		t.Fatal(err)
	}
	// Fetch is ordered behind the one-way batch on the same connection.
	got1, err := cl.Fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := cl.Fetch(2)
	if err != nil {
		t.Fatal(err)
	}
	want1 := []memtable.Entry{{Key: "aa", Count: 10}, {Key: "bb", Count: 1}}
	want2 := []memtable.Entry{{Key: "cc", Count: 1}}
	if fmt.Sprint(got1) != fmt.Sprint(want1) {
		t.Fatalf("line 1 = %v, want %v", got1, want1)
	}
	if fmt.Sprint(got2) != fmt.Sprint(want2) {
		t.Fatalf("line 2 = %v, want %v", got2, want2)
	}
	m := cl.Metrics()
	if m.UpdateBatches != 1 || m.BatchedUpdates != uint64(len(items)) {
		t.Fatalf("client metrics: batches=%d batched=%d", m.UpdateBatches, m.BatchedUpdates)
	}
	sm := srv.Metrics()
	if sm.UpdateBatches != 1 {
		t.Fatalf("server batches = %d, want 1", sm.UpdateBatches)
	}
	// Updates counts items addressed to present lines (13 of 14); only the
	// item for missing line 9 is excluded.
	if sm.Updates != 13 {
		t.Fatalf("server updates = %d, want 13", sm.Updates)
	}
}
