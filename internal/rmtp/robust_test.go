package rmtp

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memtable"
)

// fakeServer accepts connections and hands each to handler (after consuming
// nothing — the handler sees the Hello frame too).
type fakeServer struct {
	ln net.Listener
	t  *testing.T
}

func newFakeServer(t *testing.T, handler func(conn net.Conn, session int)) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeServer{ln: ln, t: t}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for session := 0; ; session++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go handler(conn, session)
		}
	}()
	return f
}

// TestFetchTimesOutOnStalledServer: a server that accepts but never replies
// must not hang the client; the error surfaces within the deadline.
func TestFetchTimesOutOnStalledServer(t *testing.T) {
	srv := newFakeServer(t, func(conn net.Conn, _ int) {
		// Read forever, reply never.
		buf := make([]byte, 1024)
		for {
			if _, err := conn.Read(buf); err != nil {
				conn.Close()
				return
			}
		}
	})
	cl, err := DialOptions(srv.ln.Addr().String(), "app0", Options{Timeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	_, err = cl.Fetch(1)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("fetch from stalled server succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("want a timeout error, got %v", err)
	}
	if elapsed > time.Second {
		t.Errorf("timeout error took %v, deadline was 200ms", elapsed)
	}
}

// TestClientSurvivesServerKilledMidSession: the server dies between two
// operations; the client reports an error promptly instead of hanging.
func TestClientSurvivesServerKilledMidSession(t *testing.T) {
	srv := NewServer(0)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	cl, err := DialOptions(srv.Addr(), "app0", Options{Timeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.StoreAck(1, []memtable.Entry{{Key: "a", Count: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stat(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = cl.Fetch(1)
	if err == nil {
		t.Fatal("fetch from killed server succeeded")
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Errorf("error took %v to surface", e)
	}
}

// TestServerCloseUnblocksIdleSessions: Close must not wait on handlers
// parked reading an idle connection (the original deadlock) and must be
// idempotent.
func TestServerCloseUnblocksIdleSessions(t *testing.T) {
	srv := NewServer(0)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr(), "app0")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Stat(); err != nil { // session is live and idle now
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srv.Close()
		srv.Close() // second close is a no-op
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an idle session")
	}
}

// TestDesyncClosesAndReconnects: a reply for the wrong line marks the stream
// corrupt; the connection is closed and the next call transparently opens a
// clean session instead of consuming the stale reply.
func TestDesyncClosesAndReconnects(t *testing.T) {
	var sessions atomic.Int32
	srv := newFakeServer(t, func(conn net.Conn, session int) {
		sessions.Add(1)
		defer conn.Close()
		for {
			op, line, _, err := ReadFrame(conn)
			if err != nil {
				return
			}
			if op == OpHello {
				continue
			}
			reply := line
			if session == 0 {
				reply = line + 1 // first session desynchronizes every reply
			}
			if err := WriteFrame(conn, OpOK, reply, EncodeStat(Stat{Lines: 7})); err != nil {
				return
			}
		}
	})
	cl, err := DialOptions(srv.ln.Addr().String(), "app0", Options{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Stat()
	if err == nil || !strings.Contains(err.Error(), "desynchronized") {
		t.Fatalf("want desync error, got %v", err)
	}
	st, err := cl.Stat() // reconnects to session 1, which behaves
	if err != nil {
		t.Fatalf("post-desync call: %v", err)
	}
	if st.Lines != 7 {
		t.Errorf("Stat = %+v", st)
	}
	if got := sessions.Load(); got != 2 {
		t.Errorf("%d sessions, want 2 (desync must close the first)", got)
	}
}

// TestCloseStaysClosed: after Close every operation fails with ErrClosed
// instead of transparently reconnecting (resurrecting a closed client).
func TestCloseStaysClosed(t *testing.T) {
	srv := NewServer(0)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), "app0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stat(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stat(); !errors.Is(err, ErrClosed) {
		t.Errorf("Stat after Close = %v, want ErrClosed", err)
	}
	if err := cl.StoreAck(1, []memtable.Entry{{Key: "a", Count: 1}}); !errors.Is(err, ErrClosed) {
		t.Errorf("StoreAck after Close = %v, want ErrClosed", err)
	}
	if err := cl.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestCloseInterruptsRetryBackoff: the retry loop must not hold the client
// lock across its backoff sleeps — Close during a retry sequence returns
// promptly and the sequence ends with ErrClosed rather than running out its
// remaining attempts.
func TestCloseInterruptsRetryBackoff(t *testing.T) {
	srv := newFakeServer(t, func(conn net.Conn, _ int) {
		defer conn.Close()
		for {
			op, _, _, err := ReadFrame(conn)
			if err != nil {
				return
			}
			if op == OpHello {
				continue
			}
			return // kill every connection at its first real request
		}
	})
	cl, err := DialOptions(srv.ln.Addr().String(), "app0",
		Options{Timeout: time.Second, Retries: 10, Backoff: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := cl.Stat()
		errCh <- err
	}()
	time.Sleep(100 * time.Millisecond) // first attempt fails into its backoff
	start := time.Now()
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e > 200*time.Millisecond {
		t.Errorf("Close blocked %v behind the retry backoff", e)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("retried call after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry loop kept running after Close")
	}
}

// TestIdempotentRetryReconnects: the server drops the connection on the
// first fetch; with retries configured the client reconnects and succeeds
// without the caller noticing.
func TestIdempotentRetryReconnects(t *testing.T) {
	srv := newFakeServer(t, func(conn net.Conn, session int) {
		defer conn.Close()
		for {
			op, line, _, err := ReadFrame(conn)
			if err != nil {
				return
			}
			if op == OpHello {
				continue
			}
			if session == 0 {
				return // kill the connection mid-request
			}
			if err := WriteFrame(conn, OpOK, line, memtable.AppendEntries(nil, []memtable.Entry{{Key: "x", Count: 3}})); err != nil {
				return
			}
		}
	})
	cl, err := DialOptions(srv.ln.Addr().String(), "app0",
		Options{Timeout: time.Second, Retries: 2, Backoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	entries, err := cl.Fetch(5)
	if err != nil {
		t.Fatalf("retried fetch: %v", err)
	}
	if len(entries) != 1 || entries[0].Key != "x" || entries[0].Count != 3 {
		t.Errorf("fetched %v", entries)
	}
}
