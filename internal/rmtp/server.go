package rmtp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/memtable"
	"repro/internal/trace"
)

// entryMemBytes is the paper's 24-byte-per-candidate accounting, as the
// memtable charges it.
const entryMemBytes = memtable.EntryMemBytes

// replyBufBytes sizes a session's reply buffer: a window of fetch replies
// for typical lines fits, so it goes out in one write.
const replyBufBytes = 64 << 10

type ownerLine struct {
	owner string
	line  int32
}

// ServerOptions configure server-side overload protection. The zero value
// reproduces the original trusting behavior: unlimited connections, no read
// deadlines, protocol-ceiling frames.
type ServerOptions struct {
	// MaxConns caps concurrent client sessions. Over the cap, a new
	// connection is refused with an OpErr frame ("connection capacity") and
	// closed instead of being accepted and starving the rest. Zero is
	// unlimited.
	MaxConns int
	// IdleTimeout bounds the wait for each frame on an established session.
	// A session silent past it is closed, reclaiming the handler goroutine
	// and fd from half-open peers and slow-loris clients. Clients reconnect
	// transparently on their next operation. Zero waits forever.
	IdleTimeout time.Duration
	// MaxFrameBytes caps accepted frame payloads below the protocol ceiling
	// (maxFrame, 16 MiB). An oversized frame draws an OpErr protocol error and the
	// session is closed — the declared length is rejected before any
	// allocation. Zero means the protocol ceiling.
	MaxFrameBytes int
	// SoftWatermark is the occupancy fraction (0..1) past which acked stores
	// are still accepted but flagged with a pressure byte in the OpOK reply,
	// telling clients to start shedding load (rotate to other servers, spill
	// to disk) before the hard capacity NACK hits. Zero disables the signal.
	SoftWatermark float64
}

// Server is a remote-memory store reachable over TCP. Lines are namespaced
// by the owner name announced in OpHello; a fetch-hold serves the stored
// copy and leases it until the owner's release deletes it, an update
// increments a key's count in place, and a migrate pushes lines to another
// server and leaves a forwarding note.
type Server struct {
	mu       sync.Mutex
	lines    map[ownerLine][]memtable.Entry
	leased   map[ownerLine]bool   // served to the owner, awaiting release
	forward  map[ownerLine]string // address lines migrated to
	capacity int64
	used     int64
	opts     ServerOptions

	ln      net.Listener
	logf    func(string, ...any)
	wg      sync.WaitGroup
	closed  bool
	drainAt time.Time             // set by Drain: sessions must finish by then
	conns   map[net.Conn]struct{} // live sessions, closed on shutdown

	stores, fetches, updates, migrated uint64
	updateBatches                      uint64 // OpUpdateBatch frames applied
	releases                           uint64
	connsRejected                      uint64 // refused over MaxConns
	frameErrors                        uint64 // oversized/garbled frames
	nacks                              uint64 // capacity NACKs (OpStoreAck)
	idleDrops                          uint64 // sessions closed by IdleTimeout
	resets                             uint64 // owner resets served
	resetLines                         uint64 // lines purged by owner resets
	softSignals                        uint64 // acked stores flagged over the soft watermark
	bytesRecv, bytesSent               uint64
	latency                            trace.Histogram // per-request service time
}

// NewServer creates a server with the given capacity in bytes (0 =
// unlimited) and no overload protection.
func NewServer(capacity int64) *Server {
	return NewServerOptions(capacity, ServerOptions{})
}

// NewServerOptions creates a server with explicit overload protection.
func NewServerOptions(capacity int64, opts ServerOptions) *Server {
	return &Server{
		lines:    make(map[ownerLine][]memtable.Entry),
		leased:   make(map[ownerLine]bool),
		forward:  make(map[ownerLine]string),
		capacity: capacity,
		opts:     opts,
		logf:     func(string, ...any) {},
		conns:    make(map[net.Conn]struct{}),
	}
}

// SetLogger directs diagnostic output (default: silent).
func (s *Server) SetLogger(f func(string, ...any)) {
	if f == nil {
		f = func(string, ...any) {}
	}
	s.logf = f
}

// Listen binds the server to addr ("127.0.0.1:0" for an ephemeral port) and
// begins serving in background goroutines.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound address (valid after Listen).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops accepting, terminates live sessions, and waits for connection
// handlers to finish. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	// Closing live connections unblocks handlers parked in ReadFrame;
	// without this, Close would wait forever on an idle session.
	for conn := range s.conns {
		conn.Close()
	}
	drained := !s.drainAt.IsZero() // Drain already closed the listener
	s.mu.Unlock()
	var err error
	if s.ln != nil && !drained {
		err = s.ln.Close()
	}
	s.wg.Wait()
	return err
}

// Drain performs a graceful shutdown: the listener closes immediately (no
// new sessions), established sessions get until the grace deadline to finish
// their in-flight frames, then everything is torn down as by Close. Safe to
// call once; Close may follow (and a second signal typically does).
func (s *Server) Drain(grace time.Duration) error {
	s.mu.Lock()
	if s.closed || !s.drainAt.IsZero() {
		s.mu.Unlock()
		return s.Close()
	}
	s.drainAt = time.Now().Add(grace)
	deadline := s.drainAt
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	// Bound reads already parked in ReadFrame; serveConn re-applies the
	// drain deadline on each subsequent frame.
	for _, conn := range conns {
		conn.SetReadDeadline(deadline)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Until(deadline) + time.Second):
	}
	return s.Close()
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.drainAt.IsZero()
}

// Stats returns operation counters.
func (s *Server) Stats() (stores, fetches, updates, migrated uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stores, s.fetches, s.updates, s.migrated
}

// Occupancy returns current line and byte counts (leased lines included —
// they are held until released).
func (s *Server) Occupancy() Stat {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stat{Lines: int64(len(s.lines)), Bytes: s.used}
}

// maxFrameBytes returns the effective per-frame payload cap.
func (s *Server) maxFrameBytes() int {
	if s.opts.MaxFrameBytes > 0 {
		return s.opts.MaxFrameBytes
	}
	return maxFrame
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			quiet := s.closed || !s.drainAt.IsZero()
			s.mu.Unlock()
			if !quiet {
				s.logf("rmtp server: accept: %v", err)
			}
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.opts.MaxConns > 0 && len(s.conns) >= s.opts.MaxConns {
			s.connsRejected++
			s.mu.Unlock()
			// Refuse in-band, then close: the next call on this session
			// surfaces the error instead of an opaque EOF. Best-effort —
			// the refused peer may already be gone.
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			WriteFrame(conn, OpErr, 0, []byte("connection capacity: server at its session cap"))
			conn.Close()
			s.logf("rmtp server: refusing connection %s: at session cap %d", conn.RemoteAddr(), s.opts.MaxConns)
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	owner := ""
	// Per-session buffered reader and reusable payload buffer: frames are
	// consumed one at a time and every handler copies what it retains, so a
	// single buffer serves the whole session with no per-frame allocation.
	br := bufio.NewReader(conn)
	var rbuf []byte
	// Replies go through a buffered writer, flushed whenever the read buffer
	// holds no further request: a lone request is answered at once in one
	// write, and a pipelined burst is answered in one write for the burst.
	// The deferred flush sends what an error path replied before closing.
	bw := bufio.NewWriterSize(conn, replyBufBytes)
	defer bw.Flush()
	for {
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
		var dl time.Time
		if s.opts.IdleTimeout > 0 {
			dl = time.Now().Add(s.opts.IdleTimeout)
		}
		s.mu.Lock()
		if !s.drainAt.IsZero() && (dl.IsZero() || s.drainAt.Before(dl)) {
			dl = s.drainAt
		}
		s.mu.Unlock()
		if !dl.IsZero() {
			conn.SetReadDeadline(dl)
		}
		op, line, payload, err := ReadFrameInto(br, s.maxFrameBytes(), rbuf)
		if len(payload) > cap(rbuf) {
			rbuf = payload[:cap(payload)]
		}
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				s.mu.Lock()
				s.frameErrors++
				s.mu.Unlock()
				s.reply(bw, OpErr, line, []byte(fmt.Sprintf("protocol: frame payload over %d-byte cap", s.maxFrameBytes())))
				s.logf("rmtp server: %s: %v", conn.RemoteAddr(), err)
				return
			}
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				s.mu.Lock()
				draining := !s.drainAt.IsZero()
				if !draining {
					s.idleDrops++
				}
				s.mu.Unlock()
				if draining {
					s.logf("rmtp server: %s: drain deadline reached, closing", conn.RemoteAddr())
				} else {
					s.logf("rmtp server: %s: idle past %s, closing", conn.RemoteAddr(), s.opts.IdleTimeout)
				}
			}
			return // EOF or broken peer ends the session
		}
		start := time.Now()
		s.mu.Lock()
		s.bytesRecv += uint64(frameHeaderBytes + len(payload))
		s.mu.Unlock()
		if op == OpHello {
			name, _, err := DecodeString(payload)
			if err != nil || name == "" {
				s.reply(bw, OpErr, line, []byte("bad hello"))
				return
			}
			owner = name
			s.observe(start)
			continue
		}
		if owner == "" {
			s.reply(bw, OpErr, line, []byte("hello required"))
			return
		}
		if err := s.handle(bw, owner, op, line, payload); err != nil {
			s.logf("rmtp server: %s op %d line %d: %v", owner, op, line, err)
			return
		}
		s.observe(start)
	}
}

// observe records one served request's wall-clock service time.
func (s *Server) observe(start time.Time) {
	s.mu.Lock()
	s.latency.Observe(time.Since(start).Nanoseconds())
	s.mu.Unlock()
}

func (s *Server) reply(w io.Writer, op Op, line int32, payload []byte) error {
	s.mu.Lock()
	s.bytesSent += uint64(frameHeaderBytes + len(payload))
	s.mu.Unlock()
	return WriteFrame(w, op, line, payload)
}

// storeLocked replaces the line's entries, adjusting accounting. Caller
// holds s.mu and has already checked capacity.
func (s *Server) storeLocked(key ownerLine, entries []memtable.Entry, need int64) {
	if old, ok := s.lines[key]; ok {
		s.used -= int64(len(old)) * entryMemBytes
	}
	s.lines[key] = entries
	s.used += need
	delete(s.forward, key)
	delete(s.leased, key) // a re-store supersedes any stale lease
	s.stores++
}

func (s *Server) handle(w io.Writer, owner string, op Op, line int32, payload []byte) error {
	key := ownerLine{owner, line}
	switch op {
	case OpStoreAck:
		entries, err := memtable.DecodeEntries(payload)
		if err != nil {
			return err
		}
		s.mu.Lock()
		need := int64(len(entries)) * entryMemBytes
		// A replacing store only grows usage by the delta.
		delta := need
		if old, ok := s.lines[key]; ok {
			delta -= int64(len(old)) * entryMemBytes
		}
		if s.capacity > 0 && s.used+delta > s.capacity {
			s.nacks++
			free := s.capacity - s.used
			s.mu.Unlock()
			return s.reply(w, OpErr, line, []byte(fmt.Sprintf(
				"%s need %d bytes, %d free", nackCapacityPrefix, need, free)))
		}
		s.storeLocked(key, entries, need)
		// Soft watermark: accept, but flag the reply when occupancy crossed
		// the pressure threshold so the client sheds load before hard NACKs.
		pressure := []byte{0}
		if s.capacity > 0 && s.opts.SoftWatermark > 0 &&
			float64(s.used) > s.opts.SoftWatermark*float64(s.capacity) {
			pressure[0] = 1
			s.softSignals++
		}
		s.mu.Unlock()
		return s.reply(w, OpOK, line, pressure)

	case OpFetchHold:
		// Lease-then-delete read: serve but keep the line until the owner's
		// release, so a lost reply is recoverable by fetching again.
		// The reply is encoded under the lock, so a concurrent update batch
		// cannot change the counts mid-encode.
		buf := getEncBuf()
		defer putEncBuf(buf)
		s.mu.Lock()
		entries, ok := s.lines[key]
		fwd, hasFwd := s.forward[key]
		if ok {
			s.leased[key] = true
			s.fetches++
			*buf = memtable.AppendEntries((*buf)[:0], entries)
		}
		s.mu.Unlock()
		if !ok {
			if hasFwd {
				return s.reply(w, OpErr, line, []byte("moved to "+fwd))
			}
			return s.reply(w, OpErr, line, []byte("not held"))
		}
		return s.reply(w, OpOK, line, *buf)

	case OpRelease:
		s.mu.Lock()
		if entries, ok := s.lines[key]; ok {
			delete(s.lines, key)
			delete(s.leased, key)
			s.used -= int64(len(entries)) * entryMemBytes
			s.releases++
		}
		s.mu.Unlock()
		// Idempotent: releasing an absent line is OK, so a retried release
		// after a lost reply does not error.
		return s.reply(w, OpOK, line, nil)

	case OpUpdateBatch:
		// Apply a coalesced frame of updates in one lock acquisition. Each
		// item names its own line; items for absent (e.g. since-fetched or
		// migrated) lines are dropped. The string(kb) comparison below does
		// not allocate; passing string(kb) to memtable.Increment would, for
		// keys longer than 32 bytes.
		s.mu.Lock()
		err := DecodeUpdateBatchFunc(payload, func(ln int32, kb []byte) {
			entries, ok := s.lines[ownerLine{owner, ln}]
			if !ok {
				return
			}
			s.updates++
			for i := range entries {
				if entries[i].Key == string(kb) {
					entries[i].Count++
					break
				}
			}
		})
		s.updateBatches++
		s.mu.Unlock()
		return err

	case OpMigrate:
		dest, rest, err := DecodeString(payload)
		if err != nil {
			return err
		}
		lines, _, err := DecodeLines(rest)
		if err != nil {
			return err
		}
		moved, err := s.migrate(owner, dest, lines)
		if err != nil {
			return s.reply(w, OpErr, line, []byte(err.Error()))
		}
		return s.reply(w, OpOK, line, EncodeLines(moved))

	case OpReset:
		// Purge every line of this owner across the three maps. Owner-scoped:
		// other miners' lines are untouched, so one node's recovery does not
		// disturb the rest of the fleet.
		s.mu.Lock()
		var purged uint64
		for k, entries := range s.lines {
			if k.owner != owner {
				continue
			}
			delete(s.lines, k)
			delete(s.leased, k)
			s.used -= int64(len(entries)) * entryMemBytes
			purged++
		}
		for k := range s.forward {
			if k.owner == owner {
				delete(s.forward, k)
			}
		}
		s.resets++
		s.resetLines += purged
		s.mu.Unlock()
		return s.reply(w, OpOK, line, binary.AppendUvarint(nil, purged))

	case OpStat:
		return s.reply(w, OpOK, line, EncodeStat(s.Occupancy()))

	default:
		return fmt.Errorf("unknown op %d", op)
	}
}

// migrate pushes the owner's listed lines to the destination server with
// acked stores and returns the lines that moved. It stops at the first line
// the destination refuses (capacity NACK or a failed exchange): that line and
// the rest stay here, still served to their owner. Leased lines are skipped:
// the owner has already fetched them, and moving the leased copy would hand
// the destination a line its owner believes released.
func (s *Server) migrate(owner, dest string, lines []int32) ([]int32, error) {
	if dest == "" {
		return nil, errors.New("empty migration destination")
	}
	cl, err := Dial(dest, owner)
	if err != nil {
		return nil, fmt.Errorf("dialing %s: %w", dest, err)
	}
	defer cl.Close()
	var moved []int32
	for _, line := range lines {
		key := ownerLine{owner, line}
		s.mu.Lock()
		entries, ok := s.lines[key]
		if s.leased[key] {
			ok = false
		}
		s.mu.Unlock()
		if !ok {
			continue
		}
		if err := cl.StoreAck(line, entries); err != nil {
			s.logf("rmtp server: %s: migration to %s stopped at line %d: %v", owner, dest, line, err)
			break
		}
		s.mu.Lock()
		delete(s.lines, key)
		s.used -= int64(len(entries)) * entryMemBytes
		s.forward[key] = dest
		s.migrated++
		s.mu.Unlock()
		moved = append(moved, line)
	}
	return moved, nil
}
