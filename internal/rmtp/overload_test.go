package rmtp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"
)

func startServerOptions(t *testing.T, capacity int64, opts ServerOptions) *Server {
	t.Helper()
	s := NewServerOptions(capacity, opts)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestReadFrameMaxRejectsBeforeAllocation: an oversized declared length is
// refused from the header alone — the payload is never read or allocated.
func TestReadFrameMaxRejectsBeforeAllocation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, OpStoreAck, 3, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadFrameMax(&buf, 10); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadFrameMax(.., 10) on a 100B payload = %v, want ErrFrameTooLarge", err)
	}
	// Only the header was consumed — the payload is still buffered.
	if buf.Len() != 100 {
		t.Errorf("%d bytes left unread, want the full 100B payload", buf.Len())
	}
	// Within the cap, frames pass untouched.
	buf.Reset()
	if err := WriteFrame(&buf, OpStoreAck, 3, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, _, payload, err := ReadFrameMax(&buf, 10); err != nil || string(payload) != "ok" {
		t.Fatalf("in-cap frame: %q, %v", payload, err)
	}
}

// TestServerRejectsOversizedFrame: a header declaring a payload over the
// server's cap draws an in-band protocol error, is counted, and ends the
// session — without the server allocating the declared length.
func TestServerRejectsOversizedFrame(t *testing.T) {
	s := startServerOptions(t, 0, ServerOptions{MaxFrameBytes: 1024})
	conn := rawSession(t, s.Addr(), "app0")
	defer conn.Close()

	// Hand-build a header claiming a 1 GiB payload; send no payload at all.
	// The server must reject from the header, not wait for (or allocate) it.
	hdr := make([]byte, frameHeaderBytes)
	hdr[0] = byte(OpStoreAck)
	binary.BigEndian.PutUint32(hdr[1:5], 7)
	binary.BigEndian.PutUint32(hdr[5:9], 1<<30)
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	op, _, payload, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("reading protocol-error reply: %v", err)
	}
	if op != OpErr || !strings.Contains(string(payload), "protocol") {
		t.Fatalf("reply = op %d %q, want OpErr protocol error", op, payload)
	}
	// The session is closed after the violation.
	if _, _, _, err := ReadFrame(conn); err == nil {
		t.Error("session still open after an oversized frame")
	}
	if m := s.Metrics(); m.FrameErrors != 1 {
		t.Errorf("FrameErrors = %d, want 1", m.FrameErrors)
	}
}

// TestMaxConnsRefusesInBand: over the session cap a new connection is
// refused with an in-band error instead of hanging or starving live
// sessions, and capacity frees once a session ends.
func TestMaxConnsRefusesInBand(t *testing.T) {
	s := startServerOptions(t, 0, ServerOptions{MaxConns: 1})
	c1 := dial(t, s, "app0")
	if _, err := c1.Stat(); err != nil {
		t.Fatal(err)
	}

	// Second session: refused. Depending on timing the refusal frame either
	// surfaces as an in-band "connection capacity" error or the teardown
	// kills the dial/first call — an error either way.
	c2, err := DialOptions(s.Addr(), "app1", Options{Timeout: 2 * time.Second})
	if err == nil {
		_, err = c2.Stat()
		c2.Close()
	}
	if err == nil {
		t.Fatal("second session served over MaxConns=1")
	}
	if m := s.Metrics(); m.ConnsRejected != 1 {
		t.Errorf("ConnsRejected = %d, want 1", m.ConnsRejected)
	}

	// Close the first session; its slot frees and a new client is served.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := DialOptions(s.Addr(), "app2", Options{Timeout: time.Second})
		if err == nil {
			if _, err = c3.Stat(); err == nil {
				c3.Close()
				break
			}
			c3.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after closing the first session: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestIdleTimeoutReclaimsSession: a silent session is closed past the
// deadline (freeing its goroutine and fd), and the client transparently
// reconnects on its next operation.
func TestIdleTimeoutReclaimsSession(t *testing.T) {
	s := startServerOptions(t, 0, ServerOptions{IdleTimeout: 100 * time.Millisecond})
	cl, err := DialOptions(s.Addr(), "app0",
		Options{Timeout: 2 * time.Second, Retries: 2, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Stat(); err != nil {
		t.Fatal(err)
	}
	// Go idle past the deadline; the server reaps the session.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := s.Metrics()
		if m.IdleDrops >= 1 && m.ActiveConns == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session not reaped: %+v", m)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The client notices only as a transparent reconnect.
	if _, err := cl.Stat(); err != nil {
		t.Fatalf("post-idle call: %v", err)
	}
	if epoch := cl.ConnEpoch(); epoch != 2 {
		t.Errorf("epoch = %d, want 2 (one reconnect)", epoch)
	}
}

// TestStoreAckCapacityNack: an acked store over the memory budget is refused
// with a NACK surfacing as ErrCapacity — the line is NOT silently dropped —
// while a replacing store is charged only its delta.
func TestStoreAckCapacityNack(t *testing.T) {
	s := startServer(t, 4*entryMemBytes) // room for 4 entries
	c := dial(t, s, "app0")

	if err := c.StoreAck(1, entriesN(3)); err != nil {
		t.Fatalf("in-budget store: %v", err)
	}
	err := c.StoreAck(2, entriesN(5))
	if !errors.Is(err, ErrCapacity) {
		t.Fatalf("over-budget store = %v, want ErrCapacity", err)
	}
	if !strings.Contains(err.Error(), nackCapacityPrefix) {
		t.Errorf("NACK text %q lacks the capacity tag", err)
	}
	// The refused line was not stored.
	if occ := s.Occupancy(); occ.Lines != 1 {
		t.Errorf("occupancy after NACK = %d lines, want 1", occ.Lines)
	}
	// Replacing line 1 with 4 entries is a delta of +1 entry: still in budget.
	if err := c.StoreAck(1, entriesN(4)); err != nil {
		t.Fatalf("replacing store within delta: %v", err)
	}
	m := s.Metrics()
	if m.Nacks != 1 {
		t.Errorf("Nacks = %d, want 1", m.Nacks)
	}
	if m.HeldBytes != 4*entryMemBytes {
		t.Errorf("held bytes = %d, want %d", m.HeldBytes, 4*entryMemBytes)
	}
}
