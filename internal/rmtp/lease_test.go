package rmtp

import (
	"net"
	"testing"

	"repro/internal/memtable"
)

// rawSession dials the server without a Client and performs the Hello, so a
// test can drive the wire protocol directly and kill the connection at an
// exact point in the exchange.
func rawSession(t *testing.T, addr, owner string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, OpHello, 0, EncodeString(owner)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestFetchSurvivesConnectionKilledBeforeAck is the destructive-read
// regression (DESIGN §7): the connection dies after the server served the
// fetch reply but before the client's release ack. With lease-then-delete
// the line must still be on the server, and a later fetch must return the
// identical entries instead of "not held".
func TestFetchSurvivesConnectionKilledBeforeAck(t *testing.T) {
	s := startServer(t, 0)
	c := dial(t, s, "app0")
	want := entriesN(6)
	if err := c.StoreAck(9, want); err != nil {
		t.Fatal(err)
	}

	// Raw session: fetch-hold, read the reply, then kill the connection
	// without ever sending the release.
	conn := rawSession(t, s.Addr(), "app0")
	if err := WriteFrame(conn, OpFetchHold, 9, nil); err != nil {
		t.Fatal(err)
	}
	op, line, payload, err := ReadFrame(conn)
	if err != nil || op != OpOK || line != 9 {
		t.Fatalf("fetch-hold reply: op=%d line=%d err=%v", op, line, err)
	}
	got, err := memtable.DecodeEntries(payload)
	if err != nil || len(got) != len(want) {
		t.Fatalf("fetch-hold entries: %d (%v)", len(got), err)
	}
	conn.Close() // reply delivered, ack lost

	// The line survived: the lease kept it, so a fresh client re-fetches
	// the same data.
	if m := s.Metrics(); m.LeasedLines != 1 || m.HeldLines != 1 {
		t.Fatalf("post-kill occupancy: %d held / %d leased, want 1/1", m.HeldLines, m.LeasedLines)
	}
	got2, err := c.Fetch(9)
	if err != nil {
		t.Fatalf("re-fetch after lost ack: %v", err)
	}
	if len(got2) != len(want) {
		t.Fatalf("re-fetched %d entries, want %d", len(got2), len(want))
	}
	for i := range want {
		if got2[i] != want[i] {
			t.Errorf("entry %d: %+v != %+v", i, got2[i], want[i])
		}
	}
	// The full fetch (hold + release) cleaned up.
	if m := s.Metrics(); m.HeldLines != 0 || m.LeasedLines != 0 || m.Releases != 1 {
		t.Errorf("post-fetch metrics: %d held / %d leased / %d releases", m.HeldLines, m.LeasedLines, m.Releases)
	}
}

// TestReleaseIsIdempotent: releasing an absent or already-released line is
// OpOK, so a retried release after a lost reply cannot error.
func TestReleaseIsIdempotent(t *testing.T) {
	s := startServer(t, 0)
	conn := rawSession(t, s.Addr(), "app0")
	defer conn.Close()
	for i := 0; i < 2; i++ {
		if err := WriteFrame(conn, OpRelease, 42, nil); err != nil {
			t.Fatal(err)
		}
		op, line, _, err := ReadFrame(conn)
		if err != nil || op != OpOK || line != 42 {
			t.Fatalf("release %d: op=%d line=%d err=%v", i, op, line, err)
		}
	}
}

// TestMigrationSkipsLeasedLines: a line served to its owner but not yet
// released must not migrate — the owner believes it is about to be deleted,
// and moving it would resurrect it at the destination.
func TestMigrationSkipsLeasedLines(t *testing.T) {
	s1 := startServer(t, 0)
	s2 := startServer(t, 0)
	c := dial(t, s1, "app0")
	for line := int32(0); line < 4; line++ {
		if err := c.StoreAck(line, entriesN(3)); err != nil {
			t.Fatal(err)
		}
	}
	// Hold line 2 without releasing it.
	conn := rawSession(t, s1.Addr(), "app0")
	defer conn.Close()
	if err := WriteFrame(conn, OpFetchHold, 2, nil); err != nil {
		t.Fatal(err)
	}
	if op, _, _, err := ReadFrame(conn); err != nil || op != OpOK {
		t.Fatalf("hold: op=%d err=%v", op, err)
	}
	moved, err := c.Migrate(s2.Addr(), []int32{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 3 {
		t.Fatalf("moved %d lines, want 3 (leased line 2 skipped)", len(moved))
	}
	for _, l := range moved {
		if l == 2 {
			t.Fatal("leased line 2 migrated")
		}
	}
}

// TestLegacyFetchOpDropsConnection: ops 2, 3 and 4, the retired one-way
// store, destructive fetch and lone update, are unknown ops. The server drops
// the connection that sent one without applying it, and the line still
// fetches unchanged through a normal client.
func TestLegacyFetchOpDropsConnection(t *testing.T) {
	s := startServer(t, 0)
	c := dial(t, s, "app0")
	want := entriesN(2)
	if err := c.StoreAck(1, want); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		op      Op
		line    int32
		payload []byte
	}{
		{2, 2, memtable.AppendEntries(nil, want)},
		{3, 1, nil},
		{4, 1, EncodeString(want[0].Key)},
	} {
		conn := rawSession(t, s.Addr(), "app0")
		if err := WriteFrame(conn, f.op, f.line, f.payload); err != nil {
			t.Fatal(err)
		}
		if op, _, payload, err := ReadFrame(conn); err == nil {
			t.Fatalf("op %d was answered: op=%d (%s), want the connection dropped", f.op, op, payload)
		}
		conn.Close()
		if occ := s.Occupancy(); occ.Lines != 1 {
			t.Errorf("op %d left %d lines, want 1", f.op, occ.Lines)
		}
	}
	got, err := c.Fetch(1)
	if err != nil {
		t.Fatalf("fetch after the retired ops: %v", err)
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("fetched %v, stored %v", got, want)
	}
}
