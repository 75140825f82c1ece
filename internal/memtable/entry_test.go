package memtable

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// TestDecodeEntriesRejectsHugeCount: an entry list whose declared count
// cannot fit in the bytes that follow is an error, not an allocation sized
// by the count. A 4-byte spill record declaring 2^31-1 entries once
// reserved tens of GB and killed the process, and any rmtp peer reaches the
// decoder through a StoreAck frame.
func TestDecodeEntriesRejectsHugeCount(t *testing.T) {
	for _, rec := range [][]byte{
		binary.AppendUvarint(nil, 0x7fffffff),
		binary.AppendUvarint(nil, 8<<20), // half the rmtp frame ceiling
		{0x02, 0x01, 'a', 0x00},          // 2 entries, bytes for 1
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := DecodeEntries(rec)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("DecodeEntries(% x) = %v, want an error", rec, got)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("DecodeEntries(% x) allocated %d bytes before rejecting it, want under 1 MB", rec, d)
		}
	}
}

// FuzzDecodeEntries: no spill record makes the decoder panic or
// over-allocate, a decoded count never exceeds what the record's bytes could
// carry, and whatever decodes survives an encode/decode round trip. rmtp
// fuzzes the same decoder from StoreAck payloads.
func FuzzDecodeEntries(f *testing.F) {
	f.Add(AppendEntries(nil, nil))
	f.Add(AppendEntries(nil, fpEntries("a", 1)))
	f.Add(AppendEntries(nil, fpEntries("k1", 5, "k2", -7, "", 0)))
	f.Add(binary.AppendUvarint(nil, 0x7fffffff))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeEntries(data)
		if err != nil {
			return
		}
		if len(entries) > len(data)/2 {
			t.Fatalf("%d entries decoded from %d bytes", len(entries), len(data))
		}
		back, err := DecodeEntries(AppendEntries(nil, entries))
		if err != nil || len(back) != len(entries) {
			t.Fatalf("round trip: %d entries (%v), want %d", len(back), err, len(entries))
		}
		for i := range entries {
			if back[i] != entries[i] {
				t.Fatalf("entry %d: %+v vs %+v", i, back[i], entries[i])
			}
		}
	})
}

// TestIncrement: the key's count goes up by one and nothing else moves; an
// absent key changes nothing.
func TestIncrement(t *testing.T) {
	es := fpEntries("a", 1, "b", 5, "b", 9)
	if !Increment(es, "b") || es[1].Count != 6 || es[2].Count != 9 || es[0].Count != 1 {
		t.Errorf("after Increment(b): %v", es)
	}
	if Increment(es, "c") {
		t.Error("Increment of an absent key reported a hit")
	}
	if Increment(nil, "a") {
		t.Error("Increment on an empty line reported a hit")
	}
}
