package rmtp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/memtable"
)

// ErrClosed is returned by every operation attempted after Close. A closed
// client never reconnects.
var ErrClosed = errors.New("rmtp: client closed")

// ErrCapacity marks a StoreAck the server refused with a capacity NACK: the
// line would not fit in the server's memory budget. The line was NOT stored;
// the caller should divert it to a fallback tier.
var ErrCapacity = errors.New("rmtp: server over capacity")

// nackCapacityPrefix tags capacity NACK payloads so clients can detect them
// without parsing free text.
const nackCapacityPrefix = "capacity:"

// Options configure the client's one retry policy: a deadline per operation,
// a retry count, and a doubling, jittered backoff between attempts. The zero
// value is the trusting client: no deadlines, no retries.
type Options struct {
	// Timeout bounds each operation's network I/O (dial, request write,
	// reply read). Zero means wait forever.
	Timeout time.Duration
	// Retries is how many times idempotent operations (Fetch, Stat, acked
	// stores, releases) are re-issued after a transport failure,
	// transparently reconnecting in between. One-way and non-idempotent
	// operations never retry.
	Retries int
	// Backoff is the pause before the first retry, doubling per retry.
	Backoff time.Duration
	// Jitter randomizes each backoff pause to ±Jitter fraction of its
	// nominal value (0..1). Zero keeps pure doubling — which synchronizes
	// the retry clocks of every client a restarting server dropped, so they
	// all stampede back at the same instant. Any production fleet should
	// set it (0.5 is a good default).
	Jitter float64
	// Seed makes the jitter sequence deterministic (tests, chaos replays).
	// Zero derives a seed from the global RNG.
	Seed int64
}

// Client is a connection to one rmtp server. Methods are safe for
// concurrent use; request/reply operations serialize on the connection.
// After a transport error the connection is closed and transparently
// re-established (with a fresh Hello) on the next operation.
type Client struct {
	mu     sync.Mutex
	addr   string
	owner  string
	opts   Options
	closed bool     // set by Close; ends retry loops and blocks reconnects
	conn   net.Conn // nil when broken/closed
	bw     *bufio.Writer
	br     *bufio.Reader
	rng    *rand.Rand // jitter source, guarded by mu
	m      Metrics

	// pressured latches the server's soft-watermark signal: true after a
	// StoreAck reply flagged occupancy pressure, false once a reply reports
	// the pressure cleared (or after Reset).
	pressured bool
}

// Dial connects to the server at addr and announces the owner name.
func Dial(addr, owner string) (*Client, error) {
	return DialOptions(addr, owner, Options{})
}

// DialOptions is Dial with explicit robustness options.
func DialOptions(addr, owner string, opts Options) (*Client, error) {
	if owner == "" {
		return nil, fmt.Errorf("rmtp: owner name required")
	}
	if opts.Timeout < 0 || opts.Retries < 0 || opts.Backoff < 0 {
		return nil, fmt.Errorf("rmtp: negative option")
	}
	if opts.Jitter < 0 || opts.Jitter > 1 {
		return nil, fmt.Errorf("rmtp: jitter must be in [0,1]")
	}
	seed := opts.Seed
	if seed == 0 {
		seed = rand.Int63()
	}
	c := &Client{addr: addr, owner: owner, opts: opts, rng: rand.New(rand.NewSource(seed))}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connectLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// ConnEpoch returns the client's connection generation: it increments every
// time a (re)connection succeeds. Because frames on one TCP connection are
// delivered in order, a request/reply exchange that succeeds at epoch E
// confirms every one-way frame the client wrote earlier at epoch E; an epoch
// change between a one-way write and a later exchange means the one-ways may
// have died with the old connection. Resilient callers use this to decide
// when a local shadow copy must stay authoritative.
func (c *Client) ConnEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Connects
}

// Close tears down the connection and marks the client closed: subsequent
// operations fail with ErrClosed instead of transparently reconnecting, and
// an in-progress retry loop stops at its next attempt.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// connectLocked dials and performs the Hello handshake.
func (c *Client) connectLocked() error {
	d := net.Dialer{Timeout: c.opts.Timeout}
	conn, err := d.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(conn)
	if err := conn.SetDeadline(c.deadline()); err != nil {
		conn.Close()
		return err
	}
	if err := WriteFrame(bw, OpHello, 0, EncodeString(c.owner)); err != nil {
		conn.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		conn.Close()
		return err
	}
	c.conn = conn
	c.bw = bw
	c.br = bufio.NewReader(conn)
	c.m.Connects++
	return nil
}

// deadline returns the absolute I/O deadline for one operation (zero time =
// no deadline).
func (c *Client) deadline() time.Time {
	if c.opts.Timeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(c.opts.Timeout)
}

// failLocked discards a connection after a transport error so the next
// operation starts from a clean stream.
func (c *Client) failLocked() {
	c.m.Errors++
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// ensureLocked reconnects if the connection is broken or was never made.
// A closed client stays closed.
func (c *Client) ensureLocked() error {
	if c.closed {
		return ErrClosed
	}
	if c.conn != nil {
		return nil
	}
	return c.connectLocked()
}

// send writes one frame (one-way).
func (c *Client) send(op Op, line int32, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureLocked(); err != nil {
		if !errors.Is(err, ErrClosed) {
			c.failLocked()
		}
		return err
	}
	if err := c.conn.SetDeadline(c.deadline()); err != nil {
		c.failLocked()
		return err
	}
	if err := WriteFrame(c.bw, op, line, payload); err != nil {
		c.failLocked()
		return err
	}
	if err := c.bw.Flush(); err != nil {
		c.failLocked()
		return err
	}
	c.m.Ops++
	c.m.BytesSent += uint64(frameHeaderBytes + len(payload))
	return nil
}

// exchangeLocked writes one request frame per line back to back, frame i
// carrying payloads[i] (nil payloads: every frame empty), in one write, and
// reads the replies in order, handing each to reply. One line is a plain
// request/reply; many are a pipelined window, answered by the server in one
// write. Any transport error — including a reply for the wrong line, which
// means the stream is desynchronized — closes the connection: a later
// operation reconnects rather than reading a stale reply (silent corruption).
func (c *Client) exchangeLocked(op Op, lines []int32, payloads [][]byte, reply func(i int, rop Op, rpayload []byte)) error {
	start := time.Now()
	if err := c.ensureLocked(); err != nil {
		if !errors.Is(err, ErrClosed) {
			c.failLocked()
		}
		return err
	}
	if err := c.conn.SetDeadline(c.deadline()); err != nil {
		c.failLocked()
		return err
	}
	frames := getEncBuf()
	defer putEncBuf(frames)
	*frames = (*frames)[:0]
	for i, line := range lines {
		var payload []byte
		if payloads != nil {
			payload = payloads[i]
		}
		if len(payload) > maxFrame {
			return fmt.Errorf("rmtp: frame payload %d: %w", len(payload), ErrFrameTooLarge)
		}
		*frames = appendFrame(*frames, op, line, payload)
	}
	if _, err := c.bw.Write(*frames); err != nil {
		c.failLocked()
		return err
	}
	if err := c.bw.Flush(); err != nil {
		c.failLocked()
		return err
	}
	for i, line := range lines {
		if i > 0 && c.opts.Timeout > 0 {
			// Each reply gets the full timeout after the one before it.
			if err := c.conn.SetReadDeadline(c.deadline()); err != nil {
				c.failLocked()
				return err
			}
		}
		rop, rline, rpayload, err := ReadFrame(c.br)
		if err != nil {
			c.failLocked()
			return err
		}
		if rline != line {
			c.failLocked()
			return fmt.Errorf("rmtp: reply for line %d, want %d (connection desynchronized, closed)", rline, line)
		}
		sent := 0
		if payloads != nil {
			sent = len(payloads[i])
		}
		c.observeCallLocked(start, sent, len(rpayload))
		reply(i, rop, rpayload)
	}
	return nil
}

// callLocked runs one request/reply exchange.
func (c *Client) callLocked(op Op, line int32, payload []byte) (rop Op, rpayload []byte, err error) {
	err = c.exchangeLocked(op, []int32{line}, [][]byte{payload}, func(_ int, o Op, b []byte) { rop, rpayload = o, b })
	return rop, rpayload, err
}

// call runs one request/reply exchange without retries.
func (c *Client) call(op Op, line int32, payload []byte) (Op, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.callLocked(op, line, payload)
}

// callRetried runs one request/reply exchange under callIdempotent.
func (c *Client) callRetried(op Op, line int32, payload []byte) (rop Op, rpayload []byte, err error) {
	err = c.callIdempotent(func() error {
		var err error
		rop, rpayload, err = c.callLocked(op, line, payload)
		return err
	})
	return rop, rpayload, err
}

// backoffLocked returns the pause before retry `attempt` (1-based):
// exponential doubling, shift-capped, with ±Jitter randomization so a fleet
// of clients dropped by one server restart does not stampede back in
// lockstep.
func (c *Client) backoffLocked(attempt int) time.Duration {
	if c.opts.Backoff <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 16 {
		shift = 16 // cap: past 65536x the base, doubling is meaningless
	}
	d := c.opts.Backoff << shift
	if c.opts.Jitter > 0 {
		span := int64(float64(d) * c.opts.Jitter)
		if span > 0 {
			d += time.Duration(c.rng.Int63n(2*span+1) - span)
		}
	}
	if d < 0 {
		d = 0
	}
	return d
}

// callIdempotent runs exchange (with c.mu held) and re-runs it on transport
// errors, reconnecting between attempts with jittered exponential backoff.
// Only safe for exchanges whose duplicate execution is harmless. The lock is
// held per attempt, never across a backoff sleep, so concurrent operations
// and Close proceed while a retry sequence waits; Close ends the sequence at
// its next attempt (ErrClosed). Each call gets the whole Retries allowance:
// no retry state carries from one call to the next.
func (c *Client) callIdempotent(exchange func() error) error {
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			c.mu.Lock()
			pause := c.backoffLocked(attempt)
			c.mu.Unlock()
			if pause > 0 {
				time.Sleep(pause)
			}
		}
		c.mu.Lock()
		if attempt > 0 {
			c.m.Retries++
		}
		err := exchange()
		c.mu.Unlock()
		if err == nil {
			return nil
		}
		lastErr = err
		if errors.Is(err, ErrClosed) {
			break
		}
	}
	return lastErr
}

// encPool recycles encode buffers (store windows, update batches, the
// frames of one exchange) so steady-state traffic allocates nothing per
// encode.
var encPool = sync.Pool{New: func() any { return new([]byte) }}

func getEncBuf() *[]byte  { return encPool.Get().(*[]byte) }
func putEncBuf(b *[]byte) { encPool.Put(b) }

// StoreAck ships one line's entries and waits for the server's acceptance:
// StoreMany of that line.
func (c *Client) StoreAck(line int32, entries []memtable.Entry) (err error) {
	c.StoreMany([]int32{line}, [][]memtable.Entry{entries}, func(_ int, e error) { err = e })
	return err
}

// StoreMany ships lines' entries (entries[i] is line lines[i]) in pipelined
// windows of up to window lines: each window is encoded into one pooled
// buffer, written back to back in one write, and its acks read in order. A
// server over its memory budget refuses a line with a capacity NACK,
// surfaced as an error matching ErrCapacity, so the caller can place the line
// elsewhere instead of losing it; a NACK does not abort the window. A window
// whose exchange fails is re-run under the client's retry policy: storing is
// idempotent, because a duplicate store replaces the same line.
//
// acked is called exactly once per line, in order, after its window: with
// nil when the server accepted the line, or with the refusal or the
// transport failure that outlasted the retries.
func (c *Client) StoreMany(lines []int32, entries [][]memtable.Entry, acked func(i int, err error)) {
	for off := 0; off < len(lines); off += window {
		win := lines[off:min(len(lines), off+window)]
		// Encode the window into one buffer; payloads[i] holds only its end
		// offset until the buffer stops growing, and is then sliced from it.
		buf := getEncBuf()
		*buf = (*buf)[:0]
		payloads := make([][]byte, len(win))
		for i := range win {
			*buf = memtable.AppendEntries(*buf, entries[off+i])
			payloads[i] = (*buf)[:len(*buf)]
		}
		from := 0
		for i, p := range payloads {
			payloads[i] = (*buf)[from:len(p)]
			from = len(p)
		}
		errs := make([]error, len(win))
		err := c.callIdempotent(func() error {
			return c.exchangeLocked(OpStoreAck, win, payloads, func(i int, op Op, payload []byte) {
				errs[i] = c.storeReplyLocked(win[i], op, payload)
			})
		})
		putEncBuf(buf)
		for i := range win {
			if err != nil {
				errs[i] = err
			}
			acked(off+i, errs[i])
		}
	}
}

// storeReplyLocked reads one StoreAck reply: nil on acceptance, whose OK
// payload may carry a soft-watermark pressure byte (old servers reply with
// an empty payload, read as no pressure), or the server's refusal.
func (c *Client) storeReplyLocked(line int32, op Op, payload []byte) error {
	if op == OpErr {
		if strings.HasPrefix(string(payload), nackCapacityPrefix) {
			return fmt.Errorf("rmtp: store line %d refused (%s): %w", line, payload, ErrCapacity)
		}
		return fmt.Errorf("rmtp: store line %d: %s", line, payload)
	}
	pressured := len(payload) >= 1 && payload[0] == 1
	if pressured && !c.pressured {
		c.m.PressureSignals++
	}
	c.pressured = pressured
	return nil
}

// Pressured reports the server's last soft-watermark signal: true when the
// most recent acked store found the server past its pressure threshold.
// Capacity-aware callers prefer un-pressured servers for new store-outs.
func (c *Client) Pressured() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pressured
}

// Reset purges every line stored under this client's owner name and returns
// how many the server dropped. A respawned miner calls it before replaying:
// its predecessor's lines are garbage that would otherwise hold server
// capacity for the rest of the run. Idempotent, retried.
func (c *Client) Reset() (int, error) {
	op, payload, err := c.callRetried(OpReset, 0, nil)
	if err != nil {
		return 0, err
	}
	if op == OpErr {
		return 0, fmt.Errorf("rmtp: reset: %s", payload)
	}
	purged, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, errors.New("rmtp: bad reset reply")
	}
	c.mu.Lock()
	c.pressured = false
	c.mu.Unlock()
	return int(purged), nil
}

// window is how many lines StoreMany ships, and FetchMany leases, in one
// pipelined exchange.
const window = 64

// Fetch retrieves one stored line: FetchMany of that line.
func (c *Client) Fetch(line int32) (entries []memtable.Entry, err error) {
	c.FetchMany([]int32{line}, func(_ int32, e []memtable.Entry, ferr error) { entries, err = e, ferr })
	return entries, err
}

// FetchMany retrieves stored lines with lease-then-delete semantics, in
// pipelined windows of up to window lines. For each window it writes the
// OpFetchHold frames back to back and reads the replies in order; the server
// keeps every line it served (leased) until the client acknowledges receipt,
// so a reply lost to a dead connection is NOT a lost line — the window is
// re-run under the client's retry policy and the server serves the same
// entries again. Only after a line's entries are decoded does the client
// release its lease, with the window's OpRelease frames pipelined the same
// way; a failed release leaves a stale leased copy on the server (reclaimed
// when the line is next stored) rather than losing data (DESIGN §7).
//
// got is called exactly once per line, in order, after its window's
// release: with the line's entries, or with the error it drew — the server's
// refusal (an absent or migrated line, which does not abort the window), a
// malformed reply, or the transport failure that outlasted the retries.
func (c *Client) FetchMany(lines []int32, got func(line int32, entries []memtable.Entry, err error)) {
	for len(lines) > 0 {
		win := lines[:min(len(lines), window)]
		lines = lines[len(win):]
		entries := make([][]memtable.Entry, len(win))
		errs := make([]error, len(win))
		err := c.callIdempotent(func() error {
			return c.exchangeLocked(OpFetchHold, win, nil, func(i int, op Op, payload []byte) {
				if op == OpErr {
					entries[i], errs[i] = nil, fmt.Errorf("rmtp: fetch line %d: %s", win[i], payload)
					return
				}
				entries[i], errs[i] = memtable.DecodeEntries(payload)
			})
		})
		if err != nil {
			for i := range errs {
				entries[i], errs[i] = nil, err
			}
		}
		// Ack: the entries are safe locally, delete the server's copies.
		// Release failure is not the caller's problem — the data is already
		// here — but it is counted, since leaked leases consume server
		// capacity until the line is re-stored.
		held := make([]int32, 0, len(win))
		for i, line := range win {
			if errs[i] == nil {
				held = append(held, line)
			}
		}
		if len(held) > 0 {
			rerr := c.callIdempotent(func() error {
				return c.exchangeLocked(OpRelease, held, nil, func(int, Op, []byte) {})
			})
			if rerr != nil {
				c.mu.Lock()
				c.m.ReleaseFailures += uint64(len(held))
				c.mu.Unlock()
			}
		}
		for i, line := range win {
			got(line, entries[i], errs[i])
		}
	}
}

// UpdateBatch ships many one-way count increments — possibly spanning many
// lines — in a single frame, the protocol's only update op. One frame header
// and one syscall amortize over the whole batch; the server applies items in
// order, dropping those for absent lines. Delivery is confirmed only by a
// later request/reply on the same connection epoch (ConnEpoch).
func (c *Client) UpdateBatch(items []UpdateItem) error {
	if len(items) == 0 {
		return nil
	}
	buf := getEncBuf()
	*buf = AppendUpdateBatch((*buf)[:0], items)
	err := c.send(OpUpdateBatch, 0, *buf)
	putEncBuf(buf)
	if err == nil {
		c.mu.Lock()
		c.m.UpdateBatches++
		c.m.BatchedUpdates += uint64(len(items))
		c.mu.Unlock()
	}
	return err
}

// Migrate asks the server to push the listed lines to another server and
// returns the lines actually moved. Not retried: a partial migration is not
// idempotent.
func (c *Client) Migrate(dest string, lines []int32) ([]int32, error) {
	payload := append(EncodeString(dest), EncodeLines(lines)...)
	op, reply, err := c.call(OpMigrate, 0, payload)
	if err != nil {
		return nil, err
	}
	if op == OpErr {
		return nil, fmt.Errorf("rmtp: migrate: %s", reply)
	}
	moved, _, err := DecodeLines(reply)
	return moved, err
}

// Stat queries the server's occupancy (idempotent, retried).
func (c *Client) Stat() (Stat, error) {
	op, payload, err := c.callRetried(OpStat, 0, nil)
	if err != nil {
		return Stat{}, err
	}
	if op == OpErr {
		return Stat{}, fmt.Errorf("rmtp: stat: %s", payload)
	}
	return DecodeStat(payload)
}
