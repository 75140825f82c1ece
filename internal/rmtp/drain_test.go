package rmtp

import (
	"testing"
	"time"

	"repro/internal/memtable"
)

func ackLines(t *testing.T, c *Client, lines ...int32) {
	t.Helper()
	for _, l := range lines {
		if err := c.StoreAck(l, []memtable.Entry{{Key: "k1", Count: 1}, {Key: "k2", Count: 2}}); err != nil {
			t.Fatalf("store line %d: %v", l, err)
		}
	}
}

// TestResetPurgesOnlyOwner: OpReset wipes exactly the calling owner's lines;
// a co-tenant miner on the same server keeps every one of its lines.
func TestResetPurgesOnlyOwner(t *testing.T) {
	s := startServer(t, 0)
	c1 := dial(t, s, "miner-1")
	c2 := dial(t, s, "miner-2")

	ackLines(t, c1, 1, 2, 3)
	ackLines(t, c2, 1)

	purged, err := c1.Reset()
	if err != nil {
		t.Fatal(err)
	}
	if purged != 3 {
		t.Errorf("reset purged %d lines, want 3", purged)
	}
	// The co-tenant's line — same line number, different owner — survives.
	if got, err := c2.Fetch(1); err != nil || len(got) != 2 {
		t.Fatalf("co-tenant fetch after reset = %v, %v", got, err)
	}
	// The caller's lines are gone.
	if _, err := c1.Fetch(2); err == nil {
		t.Error("owner's line survived its reset")
	}
	// Idempotent: an empty namespace resets to zero without error.
	if purged, err := c1.Reset(); err != nil || purged != 0 {
		t.Errorf("second reset = %d, %v", purged, err)
	}
	m := s.Metrics()
	if m.Resets != 2 || m.ResetLines != 3 {
		t.Errorf("server counted %d resets / %d purged lines, want 2 / 3", m.Resets, m.ResetLines)
	}
}

// TestSoftWatermarkSignalsPressure: once occupancy crosses the watermark the
// server keeps accepting but flags the ack, the client latches the pressure
// signal, and a reset clears it.
func TestSoftWatermarkSignalsPressure(t *testing.T) {
	// Room for 10 entries; pressure past 50% = 5 entries.
	s := startServerOptions(t, 10*entryMemBytes, ServerOptions{SoftWatermark: 0.5})
	c := dial(t, s, "app0")

	ackLines(t, c, 1) // 2 entries: well under the watermark
	if c.Pressured() {
		t.Fatal("client pressured below the watermark")
	}
	ackLines(t, c, 2, 3) // 6 entries: over the watermark
	if !c.Pressured() {
		t.Fatal("client not pressured past the watermark")
	}
	if m := c.Metrics(); m.PressureSignals == 0 {
		t.Error("pressure onset not counted")
	}
	if m := s.Metrics(); m.SoftSignals == 0 {
		t.Error("server flagged no acks despite crossing the watermark")
	}
	// Purging the namespace clears both the occupancy and the latch.
	if _, err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if c.Pressured() {
		t.Error("pressure latch survived the reset")
	}
	ackLines(t, c, 4)
	if c.Pressured() {
		t.Error("re-pressured by a store far below the watermark")
	}
}

// TestWatermarkDisabledSendsNoPressure: with SoftWatermark unset the server
// never flags, even at 100% occupancy — backward-compatible default.
func TestWatermarkDisabledSendsNoPressure(t *testing.T) {
	s := startServer(t, 2*entryMemBytes)
	c := dial(t, s, "app0")
	ackLines(t, c, 1) // fills the server exactly
	if c.Pressured() {
		t.Error("pressure flagged with the watermark disabled")
	}
}

// TestDrainFinishesInflightAndRefusesNew: Drain closes the door to new
// sessions immediately, but an established session keeps working until the
// grace deadline; afterwards everything is down.
func TestDrainFinishesInflightAndRefusesNew(t *testing.T) {
	s := NewServer(0)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := DialOptions(s.Addr(), "app0", Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ackLines(t, c, 1)

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(400 * time.Millisecond) }()
	// Wait until the drain has actually begun (listener closed).
	for !s.Draining() {
		time.Sleep(2 * time.Millisecond)
	}

	// The established session still serves within the grace window.
	if got, err := c.Fetch(1); err != nil || len(got) != 2 {
		t.Fatalf("in-flight fetch during drain = %v, %v", got, err)
	}
	// A new session is refused: the listener is gone.
	late, err := DialOptions(s.Addr(), "late", Options{Timeout: 300 * time.Millisecond})
	if err == nil {
		err = late.StoreAck(9, []memtable.Entry{{Key: "x", Count: 1}})
		late.Close()
	}
	if err == nil {
		t.Error("new session accepted during drain")
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Fully down now: the surviving client errors too.
	if _, err := c.Fetch(1); err == nil {
		t.Error("session survived the end of the drain")
	}
	// Close after Drain is a clean no-op.
	if err := s.Close(); err != nil {
		t.Errorf("close after drain: %v", err)
	}
}
