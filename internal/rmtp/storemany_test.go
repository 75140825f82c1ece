package rmtp

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"

	"repro/internal/memtable"
)

// TestStoreManyWindowInOneWriteEachWay: a full window of StoreAck frames
// costs the client one write and the server one write for all its acks.
func TestStoreManyWindowInOneWriteEachWay(t *testing.T) {
	s := NewServer(0)
	client, server := net.Pipe()
	swc := &writeCounter{Conn: server}
	s.mu.Lock()
	s.conns[swc] = struct{}{}
	s.mu.Unlock()
	s.wg.Add(1)
	go s.serveConn(swc)
	defer s.Close()

	cwc := &writeCounter{Conn: client}
	c := &Client{owner: "app0", conn: cwc, bw: bufio.NewWriter(cwc), br: bufio.NewReader(cwc), rng: rand.New(rand.NewSource(1))}
	defer c.Close()
	if err := WriteFrame(c.bw, OpHello, 0, EncodeString("app0")); err != nil {
		t.Fatal(err)
	}
	if err := c.bw.Flush(); err != nil {
		t.Fatal(err)
	}

	// Small lines: a window that fits the server's read buffer, as the
	// server can only answer in one write what it has read in one go.
	lines := make([]int32, window)
	entries := make([][]memtable.Entry, window)
	for i := range lines {
		lines[i], entries[i] = int32(i), entriesN(2)
	}
	clientBefore, serverBefore := cwc.writes.Load(), swc.writes.Load()
	acks := 0
	c.StoreMany(lines, entries, func(i int, err error) {
		if err != nil || i != acks {
			t.Errorf("ack %d (want %d): %v", i, acks, err)
		}
		acks++
	})
	if acks != window {
		t.Fatalf("%d acks, want %d", acks, window)
	}
	if n := cwc.writes.Load() - clientBefore; n != 1 {
		t.Errorf("window of %d stores written in %d client writes, want 1", window, n)
	}
	if n := swc.writes.Load() - serverBefore; n != 1 {
		t.Errorf("window of %d stores acked in %d server writes, want 1", window, n)
	}
	if m := s.Metrics(); m.HeldLines != window {
		t.Errorf("server holds %d lines, want %d", m.HeldLines, window)
	}
}

// TestStoreManyNackMidWindow: a capacity NACK refuses only its own line; the
// lines after it in the window are still stored, each acked once and in
// order.
func TestStoreManyNackMidWindow(t *testing.T) {
	s := startServer(t, 6*entryMemBytes)
	c := dial(t, s, "app0")
	lines := []int32{0, 1, 2, 3}
	entries := [][]memtable.Entry{entriesN(2), entriesN(8), entriesN(2), entriesN(2)}
	var got []error
	c.StoreMany(lines, entries, func(i int, err error) {
		if i != len(got) {
			t.Fatalf("ack %d out of order (want %d)", i, len(got))
		}
		got = append(got, err)
	})
	if len(got) != 4 {
		t.Fatalf("%d acks, want 4", len(got))
	}
	for i, err := range got {
		if i == 1 {
			if !errors.Is(err, ErrCapacity) {
				t.Errorf("line 1: %v, want a capacity NACK", err)
			}
			continue
		}
		if err != nil {
			t.Errorf("line %d: %v", i, err)
		}
	}
	if m := s.Metrics(); m.HeldLines != 3 || m.Stores != 3 {
		t.Errorf("server: %d held, %d stores, want 3 and 3", m.HeldLines, m.Stores)
	}
	if _, err := c.Fetch(1); err == nil {
		t.Error("refused line 1 is fetchable")
	}
}

// FuzzReadFrame feeds arbitrary bytes to both frame readers. Neither may
// panic or return a payload over its cap; a header declaring more than the
// cap is ErrFrameTooLarge; and a frame WriteFrame wrote reads back intact.
func FuzzReadFrame(f *testing.F) {
	for _, fr := range []struct {
		op      Op
		line    int32
		payload []byte
	}{
		{OpHello, 0, EncodeString("app0")},
		{OpStoreAck, 7, memtable.AppendEntries(nil, entriesN(3))},
		{OpFetchHold, -1, nil},
		{OpUpdateBatch, 0, EncodeUpdateBatch([]UpdateItem{{Line: 2, Key: "ab"}})},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr.op, fr.line, fr.payload); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), 64)
	}
	f.Add([]byte{byte(OpStoreAck), 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}, 0)
	f.Add([]byte{byte(OpStat), 0, 0, 0, 0, 0, 0, 0, 9, 1}, 8)
	f.Fuzz(func(t *testing.T, data []byte, max int) {
		effective := max
		if effective <= 0 || effective > maxFrame {
			effective = maxFrame
		}
		declared := -1
		if len(data) >= 9 {
			declared = int(uint32(data[5])<<24 | uint32(data[6])<<16 | uint32(data[7])<<8 | uint32(data[8]))
		}
		check := func(name string, op Op, line int32, payload []byte, err error) {
			if declared > effective && !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("%s: header declares %d bytes over cap %d, got %v", name, declared, effective, err)
			}
			if err != nil {
				return
			}
			if len(payload) > effective {
				t.Fatalf("%s: %d-byte payload over cap %d", name, len(payload), effective)
			}
			var buf bytes.Buffer
			if err := WriteFrame(&buf, op, line, payload); err != nil {
				t.Fatalf("%s: rewrite: %v", name, err)
			}
			rop, rline, rpayload, err := ReadFrameMax(&buf, effective)
			if err != nil || rop != op || rline != line || !bytes.Equal(rpayload, payload) {
				t.Fatalf("%s: round trip = %d/%d/%q/%v, want %d/%d/%q", name, rop, rline, rpayload, err, op, line, payload)
			}
			if buf.Len() != 0 {
				t.Fatalf("%s: %d bytes left after the round trip", name, buf.Len())
			}
		}
		op, line, payload, err := ReadFrameMax(bytes.NewReader(data), max)
		check("ReadFrameMax", op, line, payload, err)
		op, line, payload, err = ReadFrameInto(bytes.NewReader(data), max, make([]byte, 0, 16))
		check("ReadFrameInto", op, line, payload, err)
		if err == nil && len(data) < 9+len(payload) {
			t.Fatalf("ReadFrameInto: %d-byte payload from %d bytes", len(payload), len(data))
		}
		if declared >= 0 && declared <= effective && len(data) < 9+declared &&
			!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("ReadFrameInto: truncated frame read as %v, want an EOF error", err)
		}
	})
}
