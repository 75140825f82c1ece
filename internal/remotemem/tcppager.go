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
	Stores          uint64 // lines a server accepted
	Fetches         uint64 // lines fetched back
	Updates         uint64 // one-way increments issued (logical)
	UpdateFrames    uint64 // coalesced update frames actually sent on the wire
	Failovers       uint64 // store attempts a server refused (the line moves on)
	Recoveries      uint64 // fetches served from the shadow after a remote failure
	Taints          uint64 // lines whose remote copy went stale (lost one-way updates)
	VerifiedFetches uint64 // remote fetches proven identical to the shadow
	Mismatches      uint64 // verified fetches that differed — a transport bug
	Migrated        uint64 // lines relocated between servers by MigrateAll
	CapacityNacks   uint64 // store attempts refused by a capacity NACK
	SoftSheds       uint64 // first-choice servers skipped on soft-watermark pressure
	FallbackStores  uint64 // lines the whole fleet refused, stored on the disk tier
	Resets          uint64 // fleet-wide owner resets issued
	ResetLines      uint64 // remote lines purged by those resets
}

// updateBatchMax is the most update items one OpUpdateBatch frame carries.
const updateBatchMax = 64

// storeWindowMax is the most store-outs a server's window holds before it
// ships as one pipelined StoreMany exchange.
const storeWindowMax = 64

// onDisk is the holder of a line the disk tier keeps. The disk tier, a
// memtable.FilePager, keys its records by line id, so diskLoc is all the
// routing a disk-held line needs.
const onDisk = -1

func diskLoc(line int) memtable.Location { return memtable.Location{Node: onDisk, Slot: line} }

// storeWindow is one server's store-outs not yet on the wire: entries[i] is
// line lines[i], as handed to StoreOut.
type storeWindow struct {
	lines   []int32
	entries [][]memtable.Entry
}

// windowPool recycles store windows, so steady-state store-outs allocate
// no window.
var windowPool = sync.Pool{New: func() any {
	return &storeWindow{
		lines:   make([]int32, 0, storeWindowMax),
		entries: make([][]memtable.Entry, 0, storeWindowMax),
	}
}}

// TCPPager implements memtable.Pager against a fleet of real rmserverd
// processes over rmtp — the TCP backend's counterpart of the simulated
// Client+Store pair, and the one remote pager of the live stack: the TCP
// fleet (core.RunTCP), the out-of-core miner (oocmine, via MineOutOfCore)
// and the chaos soak all swap through it. It carries the resilience
// semantics the simulated client models:
//
//   - Store-outs are windowed. StoreOut records the line and its shadow in
//     the ledger, appends it to its first-choice server's store window (the
//     rotation, with soft-watermark-pressured servers demoted) and returns at
//     once; the returned Location is that first choice. A window ships as
//     one pipelined StoreMany exchange when it holds storeWindowMax lines,
//     and before anything else goes to its server: an update frame, a fetch,
//     a migration. So a line's store is on the wire before its updates and
//     its fetch, and before Reset purges the fleet. Close drops unsent
//     windows.
//   - Refusal is deferred, and each line is settled once, when its window's
//     acks arrive: accepted, the ledger records the connection epoch;
//     refused (capacity NACK, dead server), the line goes to the next
//     servers in the pressure-aware order, with its shadow as the payload;
//     refused by the whole fleet, to the disk tier (SpillTo). Without a
//     disk tier the line is served from its shadow, and the call that
//     settled it returns an error wrapping the last refusal (for a full
//     fleet, rmtp.ErrCapacity): no line is dropped silently.
//   - Every line a server holds keeps a private shadow copy; one-way
//     updates are mirrored into it. A line on the disk tier keeps none: its
//     updates and fetch go to the disk tier.
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
// an error. The pager routes every call by its ledger, not by the Location
// it is handed. Unlike the simulated Client, no virtual time is charged:
// operations take the real network's time. Location.Node is the server's
// fleet index. The ordering guarantees hold for calls made one at a time, as
// a memtable.Table makes them.
type TCPPager struct {
	mu      sync.Mutex
	owner   string
	addrs   []string
	clients []*rmtp.Client
	disk    *memtable.FilePager // where lines the whole fleet refuses go; nil: none
	lines   ledger              // holder is the fleet index or onDisk
	rr      int
	stats   TCPPagerStats
	logf    func(string, ...any)
	pendS   []*storeWindow            // not-yet-shipped store-outs per server
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
		pendS: make([]*storeWindow, len(addrs)),
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

// SpillTo makes disk the tier for lines the whole fleet refuses. The pager
// stores, updates and fetches such a line there, routed by its ledger entry;
// the caller keeps ownership of disk (closing it, resetting it only through
// the pager's Reset).
func (tp *TCPPager) SpillTo(disk *memtable.FilePager) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	tp.disk = disk
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
		sum.ReleaseFailures += m.ReleaseFailures
		sum.PressureSignals += m.PressureSignals
		sum.BytesSent += m.BytesSent
		sum.BytesRecv += m.BytesRecv
		sum.Latency.Merge(m.Latency)
	}
	return sum
}

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

// StoreOut records the line with its shadow and queues it in its
// first-choice server's store window, returning that choice; a full window
// ships. The rotation picks the first choice, but servers that signalled
// soft-watermark pressure on their last ack come after the un-pressured ones
// — the shed that keeps a nearly-full server from hitting hard NACKs — and
// are still eligible: pressure is advice, capacity is the law. The pager
// keeps entries until the window ships; the caller must not modify them.
func (tp *TCPPager) StoreOut(p transport.Proc, line int, entries []memtable.Entry) (memtable.Location, error) {
	tp.mu.Lock()
	first := tp.rr % len(tp.clients)
	tp.rr++
	tp.mu.Unlock()
	order, sheds := tp.order(first)
	server := order[0]

	tp.mu.Lock()
	if sheds < len(order) {
		tp.stats.SoftSheds += uint64(sheds)
	}
	tp.lines[line] = &placement{holder: server, shadow: shadowCopy(entries), pending: true}
	w := tp.pendS[server]
	if w == nil {
		w = windowPool.Get().(*storeWindow)
		tp.pendS[server] = w
	}
	w.lines = append(w.lines, int32(line))
	w.entries = append(w.entries, entries)
	full := len(w.lines) >= storeWindowMax
	tp.mu.Unlock()
	var err error
	if full {
		err = tp.shipStores(server)
	}
	return memtable.Location{Node: server}, err
}

// order lists the fleet in rotation order from first, with the servers that
// signalled soft-watermark pressure on their last ack moved after the
// others, and returns how many were moved.
func (tp *TCPPager) order(first int) (order []int, sheds int) {
	n := len(tp.clients)
	order = make([]int, 0, n)
	var pressured []int
	for k := 0; k < n; k++ {
		s := (first + k) % n
		if tp.clients[s].Pressured() {
			pressured = append(pressured, s)
		} else {
			order = append(order, s)
		}
	}
	return append(order, pressured...), len(pressured)
}

// Flush ships every unsent store window and settles it. It returns the
// error of a line no server and no disk tier took (served from its shadow
// from here on).
func (tp *TCPPager) Flush() error {
	var first error
	for server := range tp.clients {
		if err := tp.shipStores(server); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// shipStores sends server's store window, if any, as one StoreMany and
// settles each line: an accepted line is placed, and the refused ones go
// on to the rest of the fleet and then the disk tier (failover).
func (tp *TCPPager) shipStores(server int) error {
	tp.mu.Lock()
	w := tp.pendS[server]
	tp.pendS[server] = nil
	tp.mu.Unlock()
	if w == nil {
		return nil
	}
	var refused []int32
	var cause error
	tp.clients[server].StoreMany(w.lines, w.entries, func(i int, err error) {
		if !tp.settle(server, int(w.lines[i]), err) {
			refused, cause = append(refused, w.lines[i]), err
		}
	})
	clear(w.entries)
	w.lines, w.entries = w.lines[:0], w.entries[:0]
	windowPool.Put(w)
	if len(refused) == 0 {
		return nil
	}
	return tp.failover(server, refused, cause)
}

// settle records server's answer to a line's store and reports whether the
// line is placed. Accepted, the line is held by server from the current
// connection epoch; refused, the refusal is counted. A line no longer
// waiting for a store (sent twice in one window) is left as it is.
func (tp *TCPPager) settle(server, line int, err error) bool {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	st, ok := tp.lines[line]
	if !ok || !st.pending {
		return true
	}
	if err != nil {
		tp.stats.Failovers++
		if errors.Is(err, rmtp.ErrCapacity) {
			tp.stats.CapacityNacks++
		}
		tp.logf("remotemem: %s: store line %d refused by server %d: %v", tp.owner, line, server, err)
		return false
	}
	st.holder = server
	st.epoch = tp.clients[server].ConnEpoch()
	st.pending = false
	tp.stats.Stores++
	return true
}

// failover offers lines refused by server to the rest of the fleet, next
// after server in the pressure-aware order, each as its shadow: the shadow
// holds every update mirrored since StoreOut, and the update items queued
// for server are dropped when it ships its queue, because the line is no
// longer held there. What the whole fleet refuses goes to the disk tier.
// Without one, the line stays tainted and served from its shadow, and the
// last refusal (cause, when no other server was tried) is returned.
func (tp *TCPPager) failover(from int, lines []int32, cause error) error {
	order, _ := tp.order(from + 1)
	for _, server := range order {
		if len(lines) == 0 {
			return nil
		}
		if server == from {
			continue
		}
		tp.mu.Lock()
		shadows := make([][]memtable.Entry, len(lines))
		for i, line := range lines {
			shadows[i] = shadowCopy(tp.lines[int(line)].shadow)
		}
		tp.mu.Unlock()
		var still []int32
		tp.clients[server].StoreMany(lines, shadows, func(i int, err error) {
			if !tp.settle(server, int(lines[i]), err) {
				still, cause = append(still, lines[i]), err
			}
		})
		lines = still
	}
	var first error
	for _, line := range lines {
		if err := tp.toDisk(int(line), cause); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// toDisk places a line the whole fleet refused on the disk tier. Without a
// disk tier, or when it fails too, the line is tainted — its shadow serves
// its fetch — and the refusal is returned.
func (tp *TCPPager) toDisk(line int, refusal error) error {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	st := tp.lines[line]
	err := fmt.Errorf("remotemem: %s: no server in the %d-node fleet accepted line %d: %w",
		tp.owner, len(tp.clients), line, refusal)
	if tp.disk != nil {
		_, derr := tp.disk.StoreOut(nil, line, st.shadow)
		if derr == nil {
			st.holder, st.shadow, st.pending = onDisk, nil, false
			tp.stats.FallbackStores++
			return nil
		}
		err = fmt.Errorf("%w; disk tier: %v", err, derr)
	}
	st.pending, st.tainted = false, true
	tp.logf("%v", err)
	return err
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
	if st.holder == onDisk {
		disk := tp.disk
		tp.mu.Unlock()
		return disk.Update(p, line, diskLoc(line), key)
	}
	if st.tainted {
		tp.mu.Unlock()
		return nil // remote copy already stale; don't widen the divergence
	}
	tp.stats.Updates++
	server := st.holder
	tp.pendU[server] = append(tp.pendU[server], rmtp.UpdateItem{Line: int32(line), Key: key})
	full := len(tp.pendU[server]) >= updateBatchMax
	tp.mu.Unlock()
	if full {
		return tp.flushServer(server)
	}
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

// flushServer ships server's store window and then its update queue, so
// the queued updates reach only lines the server accepted. It returns the
// store window's refusal error, if a line found no home.
func (tp *TCPPager) flushServer(server int) error {
	err := tp.shipStores(server)
	tp.mu.Lock()
	items := tp.takePendingLocked(server)
	tp.mu.Unlock()
	tp.sendBatch(server, items)
	return err
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
// went stale, or cannot be trusted; lines on the disk tier come from there.
// got receives every line that lands; the first error — a line that failed
// verification or a store refusal settled on the way — is returned after
// the sweep.
func (tp *TCPPager) FetchAll(p transport.Proc, lines []memtable.Swapped, got func(line int, entries []memtable.Entry)) error {
	// A line's store must be on the wire before its fetch. Shipping settles
	// refusals, which can move a line to another server or to disk, so the
	// lines are grouped by holder only after.
	tp.mu.Lock()
	ship := make([]bool, len(tp.clients))
	for _, sl := range lines {
		st, ok := tp.lines[sl.Line]
		if !ok {
			tp.mu.Unlock()
			return fmt.Errorf("remotemem: %s: fetch of unknown line %d", tp.owner, sl.Line)
		}
		if st.pending {
			ship[st.holder] = true
		}
	}
	tp.mu.Unlock()
	var first error
	note := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for server, ok := range ship {
		if ok {
			note(tp.shipStores(server))
		}
	}

	tp.mu.Lock()
	byServer := make([][]int32, len(tp.clients))
	var disk []int
	spill := tp.disk
	for _, sl := range lines {
		if h := tp.lines[sl.Line].holder; h == onDisk {
			disk = append(disk, sl.Line)
		} else {
			byServer[h] = append(byServer[h], int32(sl.Line))
		}
	}
	tp.mu.Unlock()

	for server, ids := range byServer {
		if len(ids) == 0 {
			continue
		}
		// Ship any queued updates for this server first: the connection is
		// FIFO and the server serial, so they are applied before the fetches
		// are served and the replies match the shadows. The flush itself may
		// taint lines.
		note(tp.flushServer(server))
		tp.clients[server].FetchMany(ids, func(line int32, fetched []memtable.Entry, err error) {
			entries, err := tp.land(server, int(line), fetched, err)
			if err != nil {
				note(err)
				return
			}
			got(int(line), entries)
		})
	}
	for _, line := range disk {
		tp.mu.Lock()
		tp.lines.forget(line)
		tp.mu.Unlock()
		entries, err := spill.FetchIn(p, line, diskLoc(line))
		if err != nil {
			note(err)
			continue
		}
		got(line, entries)
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
	// The withdrawing server's store window and queued updates must land
	// before its lines move: the server drops updates for lines it no longer
	// holds. Settling the window may place lines elsewhere, so they are
	// listed after.
	if err := tp.flushServer(from); err != nil {
		return nil, err
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

// Reset purges this owner's lines from every server in the fleet and from
// the disk tier, and forgets the local line map. Unsent store windows ship
// first, so the purge finds every line the pager placed; queued updates are
// dropped. Best-effort per server: a store that is down or refusing lost the
// lines anyway (and a respawned owner's first store-out re-establishes its
// namespace); the first error is reported after every server has been tried.
func (tp *TCPPager) Reset() error {
	tp.Flush() // a line no server took is purged with the rest; its error is moot
	tp.mu.Lock()
	tp.lines = ledger{}
	tp.pendU = make(map[int][]rmtp.UpdateItem)
	tp.stats.Resets++
	disk := tp.disk
	tp.mu.Unlock()
	var first error
	if disk != nil {
		first = disk.Reset()
	}
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
