package rmtp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Op identifies a protocol operation.
type Op uint8

// Protocol operations.
const (
	OpHello Op = 1 // payload: owner name
	// Ops 2, 3 and 4 (a retired one-way store, destructive fetch and lone
	// update) stay unassigned so a frame from an old peer is still an unknown
	// op that drops its connection.
	OpMigrate Op = 5 // payload: dest address + line list; reply OpOK moved list
	OpStat    Op = 6 // payload: empty; reply OpOK stats
	// OpFetchHold is a non-destructive fetch: the server replies with the
	// line's entries but keeps them, marking the line leased, until the
	// client acknowledges receipt with OpRelease. Re-issuing a hold for an
	// already-leased line serves the same entries again, which is what makes
	// a retried fetch safe when the reply (not the request) was lost.
	OpFetchHold Op = 7 // payload: empty; reply OpOK entries or OpErr
	// OpRelease acknowledges a held fetch: the server deletes the leased
	// copy. Idempotent — releasing a line that is not held is OpOK too.
	OpRelease Op = 8 // payload: empty; reply OpOK
	// OpStoreAck stores a line's entries and replies: OpOK on acceptance, or
	// an OpErr capacity NACK when the store would exceed the server's memory
	// budget, so the client can divert to a fallback tier instead of losing
	// the line.
	OpStoreAck Op = 9 // payload: entries; reply OpOK or OpErr
	// OpReset purges every line (held, leased, or forwarded) of the calling
	// owner. A respawned miner issues it before replaying a pass: the dead
	// predecessor's swapped-out lines are garbage under the same owner name
	// and would otherwise occupy server capacity until the run ends.
	// Idempotent — resetting an owner with no lines is OpOK with count 0.
	OpReset Op = 10 // payload: empty; reply OpOK purged-line count (uvarint)
	// OpUpdateBatch carries many one-way count updates, possibly for many
	// lines, in a single frame: the protocol's only update op. The frame's
	// line field is unused (0); each item names its own line. Items for
	// absent lines are dropped.
	OpUpdateBatch Op = 11 // payload: update items (one-way)
	OpOK          Op = 16 // reply payload depends on request
	OpErr         Op = 17 // reply payload: error message
)

// maxFrame bounds a frame payload to keep a malformed peer from forcing a
// huge allocation. MaxFrame is the exported protocol ceiling; servers may
// enforce a lower per-instance cap (ServerOptions.MaxFrameBytes).
const maxFrame = 16 << 20

// MaxFrame is the protocol-wide frame payload ceiling in bytes.
const MaxFrame = maxFrame

// ErrFrameTooLarge marks a frame whose declared payload length exceeds the
// reader's cap. The length field is unsigned on the wire, so a "negative"
// 32-bit length arrives as a huge value and is rejected by the same check —
// before any allocation happens.
var ErrFrameTooLarge = errors.New("rmtp: frame payload exceeds limit")

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, op Op, line int32, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("rmtp: frame payload %d: %w", len(payload), ErrFrameTooLarge)
	}
	var hdr [9]byte
	hdr[0] = byte(op)
	binary.BigEndian.PutUint32(hdr[1:5], uint32(line))
	binary.BigEndian.PutUint32(hdr[5:9], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// appendFrame appends one frame — the 9-byte header and the payload — to
// buf. The caller checks the payload against maxFrame.
func appendFrame(buf []byte, op Op, line int32, payload []byte) []byte {
	buf = append(buf, byte(op))
	buf = binary.BigEndian.AppendUint32(buf, uint32(line))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...)
}

// ReadFrame reads one frame, capping the payload at the protocol ceiling.
func ReadFrame(r io.Reader) (op Op, line int32, payload []byte, err error) {
	return ReadFrameMax(r, maxFrame)
}

// ReadFrameMax reads one frame, rejecting payloads larger than max bytes
// with ErrFrameTooLarge before allocating. max values outside (0, MaxFrame]
// fall back to the protocol ceiling.
func ReadFrameMax(r io.Reader, max int) (op Op, line int32, payload []byte, err error) {
	if max <= 0 || max > maxFrame {
		max = maxFrame
	}
	var hdr [9]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	op = Op(hdr[0])
	line = int32(binary.BigEndian.Uint32(hdr[1:5]))
	n := binary.BigEndian.Uint32(hdr[5:9])
	if n > uint32(max) {
		return 0, 0, nil, fmt.Errorf("rmtp: frame payload %d over cap %d: %w", n, max, ErrFrameTooLarge)
	}
	payload = make([]byte, n)
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return op, line, payload, nil
}

// EncodeString serializes a length-prefixed string.
func EncodeString(s string) []byte {
	return AppendString(nil, s)
}

// AppendString serializes a length-prefixed string onto buf.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// DecodeString parses a length-prefixed string and returns the rest.
func DecodeString(b []byte) (string, []byte, error) {
	n, off := binary.Uvarint(b)
	if off <= 0 || uint64(len(b)-off) < n {
		return "", nil, errors.New("rmtp: truncated string")
	}
	return string(b[off : off+int(n)]), b[off+int(n):], nil
}

// EncodeLines serializes a line-id list.
func EncodeLines(lines []int32) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(lines)))
	for _, l := range lines {
		buf = binary.AppendVarint(buf, int64(l))
	}
	return buf
}

// DecodeLines parses a line-id list and returns the rest. The declared count
// is bounded by the bytes that follow it (a line id takes at least 1).
func DecodeLines(b []byte) ([]int32, []byte, error) {
	n, off := binary.Uvarint(b)
	if off <= 0 {
		return nil, nil, errors.New("rmtp: bad line count")
	}
	if n > uint64(len(b)-off) {
		return nil, nil, fmt.Errorf("rmtp: line count %d exceeds the %d-byte payload", n, len(b)-off)
	}
	out := make([]int32, 0, n)
	for i := uint64(0); i < n; i++ {
		v, m := binary.Varint(b[off:])
		if m <= 0 {
			return nil, nil, fmt.Errorf("rmtp: truncated line at %d", i)
		}
		off += m
		out = append(out, int32(v))
	}
	return out, b[off:], nil
}

// UpdateItem is one count increment inside an OpUpdateBatch frame.
type UpdateItem struct {
	Line int32
	Key  string
}

// EncodeUpdateBatch serializes a batch of update items.
func EncodeUpdateBatch(items []UpdateItem) []byte {
	return AppendUpdateBatch(nil, items)
}

// AppendUpdateBatch serializes a batch of update items onto buf
// (pooled-buffer form of EncodeUpdateBatch).
func AppendUpdateBatch(buf []byte, items []UpdateItem) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(items)))
	for _, it := range items {
		buf = binary.AppendVarint(buf, int64(it.Line))
		buf = binary.AppendUvarint(buf, uint64(len(it.Key)))
		buf = append(buf, it.Key...)
	}
	return buf
}

// DecodeUpdateBatch parses a batch of update items.
func DecodeUpdateBatch(b []byte) ([]UpdateItem, error) {
	var out []UpdateItem
	err := DecodeUpdateBatchFunc(b, func(line int32, key []byte) {
		out = append(out, UpdateItem{Line: line, Key: string(key)})
	})
	return out, err
}

// DecodeUpdateBatchFunc parses a batch of update items, calling fn for each
// without allocating: key is a view into b, valid only during the call. The
// server's batch-apply path uses this to process a frame of thousands of
// updates with zero per-item allocations.
func DecodeUpdateBatchFunc(b []byte, fn func(line int32, key []byte)) error {
	n, off := binary.Uvarint(b)
	if off <= 0 {
		return errors.New("rmtp: bad update batch count")
	}
	if n > maxFrame/2 {
		return fmt.Errorf("rmtp: implausible update count %d", n)
	}
	for i := uint64(0); i < n; i++ {
		line, m := binary.Varint(b[off:])
		if m <= 0 {
			return fmt.Errorf("rmtp: truncated line at update %d", i)
		}
		off += m
		kl, m := binary.Uvarint(b[off:])
		if m <= 0 || uint64(len(b)-off-m) < kl {
			return fmt.Errorf("rmtp: truncated key at update %d", i)
		}
		off += m
		fn(int32(line), b[off:off+int(kl)])
		off += int(kl)
	}
	if off != len(b) {
		return fmt.Errorf("rmtp: %d trailing bytes after update batch", len(b)-off)
	}
	return nil
}

// ReadFrameInto is ReadFrameMax with a caller-supplied payload buffer: when
// buf has the capacity, the returned payload aliases it and no allocation
// happens. Callers that loop should keep the (possibly grown) payload's
// backing array as the next call's buf. The payload is only valid until the
// buffer is reused.
func ReadFrameInto(r io.Reader, max int, buf []byte) (op Op, line int32, payload []byte, err error) {
	if max <= 0 || max > maxFrame {
		max = maxFrame
	}
	var hdr [9]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	op = Op(hdr[0])
	line = int32(binary.BigEndian.Uint32(hdr[1:5]))
	n := binary.BigEndian.Uint32(hdr[5:9])
	if n > uint32(max) {
		return 0, 0, nil, fmt.Errorf("rmtp: frame payload %d over cap %d: %w", n, max, ErrFrameTooLarge)
	}
	if uint32(cap(buf)) >= n {
		payload = buf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return op, line, payload, nil
}

// Stat is the server occupancy report.
type Stat struct {
	Lines int64
	Bytes int64
}

// EncodeStat serializes a Stat.
func EncodeStat(s Stat) []byte {
	buf := binary.AppendVarint(nil, s.Lines)
	return binary.AppendVarint(buf, s.Bytes)
}

// DecodeStat parses a Stat.
func DecodeStat(b []byte) (Stat, error) {
	lines, off := binary.Varint(b)
	if off <= 0 {
		return Stat{}, errors.New("rmtp: bad stat")
	}
	bytes, m := binary.Varint(b[off:])
	if m <= 0 {
		return Stat{}, errors.New("rmtp: bad stat bytes")
	}
	return Stat{Lines: lines, Bytes: bytes}, nil
}
