package remotemem

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/memtable"
	"repro/internal/rmtp"
	"repro/internal/transport"
)

// TCPPagerStats count the pager's degraded-mode activity.
type TCPPagerStats struct {
	Stores          uint64 // lines shipped out
	Fetches         uint64 // lines fetched back
	Updates         uint64 // one-way increments issued (logical)
	UpdateFrames    uint64 // coalesced update frames actually sent on the wire
	Failovers       uint64 // stores diverted to another server after a refusal
	Recoveries      uint64 // fetches served from the shadow after a remote failure
	Taints          uint64 // lines whose remote copy went stale (lost one-way updates)
	VerifiedFetches uint64 // remote fetches proven identical to the shadow
	Mismatches      uint64 // verified fetches that differed — a transport bug
	Migrated        uint64 // lines relocated between servers by MigrateAll
	CapacityNacks   uint64 // store attempts refused by a capacity NACK
	SoftSheds       uint64 // first-choice servers skipped on soft-watermark pressure
	Resets          uint64 // fleet-wide owner resets issued
	ResetLines      uint64 // remote lines purged by those resets
}

// updateBatchMax is the most update items one OpUpdateBatch frame carries.
const updateBatchMax = 64

// TCPPager implements memtable.Pager against a fleet of real rmserverd
// processes over rmtp — the TCP backend's counterpart of the simulated
// Client+Store pair, and the one remote pager of the live stack: the TCP
// fleet (core.RunTCP), the out-of-core miner (oocmine, via MineOutOfCore)
// and the chaos soak all swap through it. It carries the resilience
// semantics the simulated client models:
//
//   - Store-outs rotate round-robin across the fleet and are acked
//     (StoreAck); a refusal — capacity NACK, open breaker, dead server —
//     fails over to the next server instead of losing the line.
//   - Every stored line keeps a private shadow copy; one-way updates are
//     mirrored into it.
//   - One-way updates are coalesced per server into OpUpdateBatch frames of
//     up to updateBatchMax items. A server's queue ships when it is full,
//     before a fetch from that server and before MigrateAll moves lines off
//     it; Reset drops it. A frame that fails to send taints its lines, and
//     so does one that lands on a different connection epoch than the
//     line's earlier unconfirmed frame: that one may have died with its
//     connection.
//   - Fetches use the protocol's lease-then-delete and verify against the
//     shadow: a reply on the same connection epoch as the line's last write
//     must match the shadow exactly (TCP ordering proves every one-way
//     landed); an epoch change taints the line and the shadow wins; a failed
//     fetch falls back to the shadow outright. FetchAll (memtable's
//     BulkFetcher) fetches many lines per server in pipelined windows
//     (rmtp FetchMany), each line through the same checks; FetchIn is
//     FetchAll of one line.
//
// Shadows are local memory held outside the table's LimitBytes budget, and
// only lines this pager stored can be updated or fetched: an unknown line is
// an error. Unlike the simulated Client, no virtual time is charged:
// operations take the real network's time. Location.Node is the server's
// fleet index.
type TCPPager struct {
	mu      sync.Mutex
	owner   string
	addrs   []string
	clients []*rmtp.Client
	lines   ledger // holder is the fleet index; every line keeps a shadow
	rr      int
	stats   TCPPagerStats
	logf    func(string, ...any)
	pendU   map[int][]rmtp.UpdateItem // not-yet-shipped update items per server
}

// NewTCPPager dials every server in the fleet. owner namespaces this pager's
// lines on the shared servers (use a per-node name, e.g. "miner-3").
func NewTCPPager(owner string, addrs []string, opts rmtp.Options) (*TCPPager, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("remotemem: tcp pager needs at least one server")
	}
	tp := &TCPPager{
		owner: owner,
		addrs: append([]string(nil), addrs...),
		lines: ledger{},
		logf:  func(string, ...any) {},
		pendU: make(map[int][]rmtp.UpdateItem),
	}
	for i, addr := range addrs {
		cl, err := rmtp.DialOptions(addr, owner, opts)
		if err != nil {
			tp.Close()
			return nil, fmt.Errorf("remotemem: tcp pager dial server %d at %s: %w", i, addr, err)
		}
		tp.clients = append(tp.clients, cl)
	}
	return tp, nil
}

// SetLogger directs diagnostic output (default: silent).
func (tp *TCPPager) SetLogger(f func(string, ...any)) {
	if f == nil {
		f = func(string, ...any) {}
	}
	tp.logf = f
}

// Stats returns a copy of the counters.
func (tp *TCPPager) Stats() TCPPagerStats {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return tp.stats
}

// ClientMetrics returns the transport counters of the pager's rmtp clients
// summed over the fleet, with their latency histograms merged.
func (tp *TCPPager) ClientMetrics() rmtp.Metrics {
	var sum rmtp.Metrics
	for _, cl := range tp.clients {
		m := cl.Metrics()
		sum.Ops += m.Ops
		sum.UpdateBatches += m.UpdateBatches
		sum.BatchedUpdates += m.BatchedUpdates
		sum.Calls += m.Calls
		sum.Retries += m.Retries
		sum.Connects += m.Connects
		sum.Errors += m.Errors
		sum.BreakerTrips += m.BreakerTrips
		sum.BreakerFastFails += m.BreakerFastFails
		sum.BudgetDenied += m.BudgetDenied
		sum.ReleaseFailures += m.ReleaseFailures
		sum.PressureSignals += m.PressureSignals
		sum.BytesSent += m.BytesSent
		sum.BytesRecv += m.BytesRecv
		sum.Latency.Merge(m.Latency)
	}
	return sum
}

// Servers returns the fleet size.
func (tp *TCPPager) Servers() int { return len(tp.clients) }

// ServerAddr returns the address of one fleet member.
func (tp *TCPPager) ServerAddr(i int) string { return tp.addrs[i] }

// Close closes every client connection.
func (tp *TCPPager) Close() error {
	var first error
	for _, cl := range tp.clients {
		if cl == nil {
			continue
		}
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// StoreOut ships a line to the fleet, rotating the first-choice server and
// failing over to the others on refusal. Servers that signalled soft-
// watermark pressure on their last ack are tried after the un-pressured
// ones — the shed that keeps a nearly-full server from hitting hard NACKs —
// but are still eligible: pressure is advice, capacity is the law.
func (tp *TCPPager) StoreOut(p transport.Proc, line int, entries []memtable.Entry) (memtable.Location, error) {
	tp.mu.Lock()
	first := tp.rr % len(tp.clients)
	tp.rr++
	tp.mu.Unlock()

	order := make([]int, 0, len(tp.clients))
	var pressured []int
	for k := 0; k < len(tp.clients); k++ {
		server := (first + k) % len(tp.clients)
		if tp.clients[server].Pressured() {
			pressured = append(pressured, server)
			continue
		}
		order = append(order, server)
	}
	if n := len(pressured); n > 0 && len(order) > 0 {
		tp.mu.Lock()
		tp.stats.SoftSheds += uint64(n)
		tp.mu.Unlock()
	}
	order = append(order, pressured...)

	var lastErr error
	for _, server := range order {
		if err := tp.clients[server].StoreAck(int32(line), entries); err != nil {
			lastErr = err
			tp.mu.Lock()
			tp.stats.Failovers++
			if errors.Is(err, rmtp.ErrCapacity) {
				tp.stats.CapacityNacks++
			}
			tp.mu.Unlock()
			tp.logf("remotemem: %s: store line %d refused by server %d: %v", tp.owner, line, server, err)
			continue
		}
		tp.mu.Lock()
		tp.stats.Stores++
		tp.lines[line] = &placement{
			holder: server,
			shadow: shadowCopy(entries),
			epoch:  tp.clients[server].ConnEpoch(),
		}
		tp.mu.Unlock()
		return memtable.Location{Node: server}, nil
	}
	return memtable.Location{}, fmt.Errorf("remotemem: %s: no server in the %d-node fleet accepted line %d: %w",
		tp.owner, len(tp.clients), line, lastErr)
}

// Update applies a one-way increment, mirrored into the shadow, and queues it
// for the line's server; a full queue ships as one frame. A failed send taints
// the line: the shadow stays authoritative from there on.
func (tp *TCPPager) Update(p transport.Proc, line int, loc memtable.Location, key string) error {
	tp.mu.Lock()
	st := tp.lines.mirror(line, key)
	if st == nil {
		tp.mu.Unlock()
		return fmt.Errorf("remotemem: %s: update of unknown line %d", tp.owner, line)
	}
	if st.tainted {
		tp.mu.Unlock()
		return nil // remote copy already stale; don't widen the divergence
	}
	tp.stats.Updates++
	server := st.holder
	tp.pendU[server] = append(tp.pendU[server], rmtp.UpdateItem{Line: int32(line), Key: key})
	var flush []rmtp.UpdateItem
	if len(tp.pendU[server]) >= updateBatchMax {
		flush = tp.takePendingLocked(server)
	}
	tp.mu.Unlock()
	tp.sendBatch(server, flush)
	return nil
}

// takePendingLocked removes and returns server's update queue, dropping items
// whose line has since been tainted (the shadow is authoritative), fetched
// back (flush-before-fetch makes this unreachable, but harmless), or re-homed
// to another server (MigrateAll flushes before migrating, likewise).
func (tp *TCPPager) takePendingLocked(server int) []rmtp.UpdateItem {
	pend := tp.pendU[server]
	if len(pend) == 0 {
		return nil
	}
	delete(tp.pendU, server)
	items := pend[:0]
	for _, it := range pend {
		st, ok := tp.lines[int(it.Line)]
		if !ok || st.tainted || st.holder != server {
			continue
		}
		items = append(items, it)
	}
	return items
}

// flushServer ships server's pending update queue, if any.
func (tp *TCPPager) flushServer(server int) {
	tp.mu.Lock()
	items := tp.takePendingLocked(server)
	tp.mu.Unlock()
	tp.sendBatch(server, items)
}

// sendBatch transmits one coalesced update frame. A failed send taints every
// line in the batch: their remote copies miss these increments, and the
// shadows carry the counts. A sent frame is unconfirmed until a later
// exchange on the same connection epoch, so a line whose earlier frame went
// out on another epoch is tainted too: that frame may have died with its
// connection, and nothing on the new one could tell.
func (tp *TCPPager) sendBatch(server int, items []rmtp.UpdateItem) {
	if len(items) == 0 {
		return
	}
	err := tp.clients[server].UpdateBatch(items)
	tp.mu.Lock()
	defer tp.mu.Unlock()
	tp.stats.UpdateFrames++
	epoch := tp.clients[server].ConnEpoch()
	for _, it := range items {
		st, ok := tp.lines[int(it.Line)]
		if !ok || st.holder != server || st.tainted {
			continue
		}
		switch {
		case err != nil:
			tp.logf("remotemem: %s: line %d tainted: update frame to server %d failed: %v", tp.owner, it.Line, server, err)
		case st.oneWay && st.epoch != epoch:
			tp.logf("remotemem: %s: line %d tainted: its earlier update frame went out on a closed connection", tp.owner, it.Line)
		default:
			st.epoch = epoch
			st.oneWay = true
			continue
		}
		st.tainted = true
		tp.stats.Taints++
	}
}

// FetchIn retrieves one line: FetchAll of that line.
func (tp *TCPPager) FetchIn(p transport.Proc, line int, loc memtable.Location) ([]memtable.Entry, error) {
	var entries []memtable.Entry
	err := tp.FetchAll(p, []memtable.Swapped{{Line: line, Loc: loc}}, func(_ int, e []memtable.Entry) { entries = e })
	return entries, err
}

// FetchAll brings lines home in one pipelined sweep per server (rmtp
// FetchMany: windowed lease-then-delete), verifying each remote copy against
// its shadow and recovering from the shadow when the remote copy failed,
// went stale, or cannot be trusted. got receives every line that lands; the
// first line that fails verification is returned as the error after the
// sweep.
func (tp *TCPPager) FetchAll(p transport.Proc, lines []memtable.Swapped, got func(line int, entries []memtable.Entry)) error {
	tp.mu.Lock()
	byServer := make([][]int32, len(tp.clients))
	for _, sl := range lines {
		st, ok := tp.lines[sl.Line]
		if !ok {
			tp.mu.Unlock()
			return fmt.Errorf("remotemem: %s: fetch of unknown line %d", tp.owner, sl.Line)
		}
		byServer[st.holder] = append(byServer[st.holder], int32(sl.Line))
	}
	tp.mu.Unlock()

	var first error
	for server, ids := range byServer {
		if len(ids) == 0 {
			continue
		}
		// Ship any queued updates for this server first: the connection is
		// FIFO and the server serial, so they are applied before the fetches
		// are served and the replies match the shadows. The flush itself may
		// taint lines.
		tp.flushServer(server)
		tp.clients[server].FetchMany(ids, func(line int32, fetched []memtable.Entry, err error) {
			entries, err := tp.land(server, int(line), fetched, err)
			if err != nil {
				if first == nil {
					first = err
				}
				return
			}
			got(int(line), entries)
		})
	}
	return first
}

// land settles one fetched line and forgets it. A tainted line is served
// from its shadow (its remote copy, fetched only to release it, is ignored),
// and so is one whose remote fetch failed. Otherwise the remote copy must
// come from the connection epoch of the line's last write and equal the
// shadow.
func (tp *TCPPager) land(server, line int, fetched []memtable.Entry, fetchErr error) ([]memtable.Entry, error) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	st := tp.lines.forget(line)
	if st == nil {
		return nil, fmt.Errorf("remotemem: %s: fetch of unknown line %d", tp.owner, line)
	}
	if st.tainted {
		tp.stats.Recoveries++
		return st.shadow, nil
	}
	if fetchErr != nil {
		tp.stats.Recoveries++
		tp.logf("remotemem: %s: line %d recovered from shadow: remote fetch: %v", tp.owner, line, fetchErr)
		return st.shadow, nil
	}
	tp.stats.Fetches++
	if tp.clients[server].ConnEpoch() != st.epoch {
		// The connection turned over since the line's last write: one-way
		// updates may have died in flight. The shadow is authoritative.
		tp.stats.Taints++
		tp.logf("remotemem: %s: line %d: connection epoch changed since last write; using shadow", tp.owner, line)
		return st.shadow, nil
	}
	if !slices.Equal(fetched, st.shadow) {
		tp.stats.Mismatches++
		tp.logf("remotemem: %s: line %d: verified fetch DIFFERS from shadow — transport bug", tp.owner, line)
		return nil, fmt.Errorf("remotemem: %s: line %d diverged from shadow on a verified fetch", tp.owner, line)
	}
	tp.stats.VerifiedFetches++
	return fetched, nil
}

// MigrateAll asks server `from` to push every line this pager placed there
// to server `dest` (the withdrawal path of the paper, over the real
// protocol), returning the relocated line ids. The caller relocates the
// lines in its table (memtable.Table.Relocate) with the returned ids.
func (tp *TCPPager) MigrateAll(from, dest int) ([]int, error) {
	if from == dest {
		return nil, fmt.Errorf("remotemem: migrate from server %d to itself", from)
	}
	tp.mu.Lock()
	var lines []int32
	for _, line := range tp.lines.linesAt(from) {
		if !tp.lines[line].tainted {
			lines = append(lines, int32(line))
		}
	}
	tp.mu.Unlock()
	if len(lines) == 0 {
		return nil, nil
	}
	// Queued updates for the withdrawing server must land before its lines
	// move: the server drops updates for lines it no longer holds.
	tp.flushServer(from)
	moved, err := tp.clients[from].Migrate(tp.addrs[dest], lines)
	if err != nil {
		return nil, err
	}
	tp.mu.Lock()
	defer tp.mu.Unlock()
	fromEpoch := tp.clients[from].ConnEpoch()
	out := make([]int, 0, len(moved))
	for _, l := range moved {
		line := int(l)
		st, ok := tp.lines[line]
		if !ok || st.holder != from {
			continue // fetched or re-stored concurrently
		}
		// Migrate is request/reply on from's connection, so its success
		// confirms every earlier one-way on that connection was delivered
		// before the push; one sent on an older connection may not have been.
		// The line's trust now hangs on dest's connection.
		if st.oneWay && st.epoch != fromEpoch && !st.tainted {
			st.tainted = true
			tp.stats.Taints++
		}
		st.holder = dest
		st.epoch = tp.clients[dest].ConnEpoch()
		st.oneWay = false
		tp.stats.Migrated++
		out = append(out, line)
	}
	return out, nil
}

// Reset purges this owner's lines from every server in the fleet and forgets
// the local line map. Best-effort per server: a store that is down or
// refusing lost the lines anyway (and a respawned owner's first store-out
// re-establishes its namespace); the first error is reported after every
// server has been tried.
func (tp *TCPPager) Reset() error {
	tp.mu.Lock()
	tp.lines = ledger{}
	tp.pendU = make(map[int][]rmtp.UpdateItem)
	tp.stats.Resets++
	tp.mu.Unlock()
	var first error
	for i, cl := range tp.clients {
		purged, err := cl.Reset()
		if err != nil {
			tp.logf("remotemem: %s: reset on server %d: %v", tp.owner, i, err)
			if first == nil {
				first = err
			}
			continue
		}
		tp.mu.Lock()
		tp.stats.ResetLines += uint64(purged)
		tp.mu.Unlock()
	}
	return first
}

var (
	_ memtable.Pager       = (*TCPPager)(nil)
	_ memtable.BulkFetcher = (*TCPPager)(nil)
	_ memtable.Resetter    = (*TCPPager)(nil)
)
