package rmtp

import (
	"bytes"
	"testing"

	"repro/internal/memtable"
)

// FuzzServerDispatch feeds any sequence of requests from two owners to
// Server.handle on a server with room for 8 entries. The input is a run of
// records: owner byte (low bit picks the owner), op byte, line byte (a
// signed line id, so ids collide often), payload length byte, payload.
// OpMigrate is skipped: its payload names an address to dial, and the fuzz
// must never open a socket. After each request handle has either failed or
// written at most one frame, which reads back with the request's line id,
// and the server's byte count equals the 24 bytes per held entry and stays
// within capacity.
func FuzzServerDispatch(f *testing.F) {
	const capacity = 8 * entryMemBytes
	rec := func(owner byte, op Op, line int8, payload []byte) []byte {
		return append([]byte{owner, byte(op), byte(line), byte(len(payload))}, payload...)
	}
	seq := func(recs ...[]byte) []byte { return bytes.Join(recs, nil) }
	three := memtable.AppendEntries(nil, entriesN(3))
	f.Add([]byte{})
	f.Add(seq(
		rec(0, OpStoreAck, 1, three),
		rec(1, OpStoreAck, 1, three),
		rec(0, OpStoreAck, 2, memtable.AppendEntries(nil, entriesN(6))), // over capacity
		rec(0, OpUpdateBatch, 0, EncodeUpdateBatch([]UpdateItem{{Line: 1, Key: "key-001"}, {Line: 9, Key: "x"}})),
		rec(0, OpFetchHold, 1, nil),
		rec(0, OpStoreAck, 1, memtable.AppendEntries(nil, entriesN(5))), // replaces the leased copy
		rec(1, OpRelease, 1, nil),
		rec(1, OpFetchHold, 1, nil), // not held
		rec(0, OpReset, 0, nil),
		rec(1, OpStat, -3, nil),
	))
	f.Add(seq(
		rec(0, OpStoreAck, -1, []byte{0xff}),
		rec(1, OpUpdateBatch, 4, []byte{0x02, 0x00}),
		rec(0, OpMigrate, 2, EncodeString("127.0.0.1:1")),
		rec(0, OpHello, 0, EncodeString("a")),
		rec(1, Op(0xee), 7, nil),
	))
	owners := [2]string{"a", "b"}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewServer(capacity)
		for len(data) >= 4 {
			owner, op, line := owners[data[0]&1], Op(data[1]), int32(int8(data[2]))
			n := min(int(data[3]), len(data)-4)
			payload := data[4 : 4+n]
			data = data[4+n:]
			if op == OpMigrate {
				continue
			}
			var w bytes.Buffer
			if err := s.handle(&w, owner, op, line, payload); err == nil && w.Len() > 0 {
				_, got, _, err := ReadFrame(&w)
				if err != nil {
					t.Fatalf("op %d line %d: reply does not read back: %v", op, line, err)
				}
				if got != line {
					t.Fatalf("op %d line %d: reply carries line %d", op, line, got)
				}
				if w.Len() != 0 {
					t.Fatalf("op %d line %d: %d bytes written past the reply frame", op, line, w.Len())
				}
			}
			var held int64
			for _, entries := range s.lines {
				held += int64(len(entries)) * entryMemBytes
			}
			if used := s.Occupancy().Bytes; used != held || used > capacity {
				t.Fatalf("op %d line %d: occupancy %d bytes, held lines %d, capacity %d", op, line, used, held, capacity)
			}
		}
	})
}
