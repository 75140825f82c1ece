package remotemem

import (
	"fmt"

	"repro/internal/memtable"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
)

// destState tracks the client's view of one memory-available node.
type destState int

const (
	destNormal destState = iota
	destMigrating
	destDrained
	destDead // heartbeat silence or fetch timeouts: assumed crashed
)

// Client is the application-node side of the remote-memory mechanism. It
// implements memtable.Pager over the network (swap-out, pagefault fetch,
// one-way update) and runs the monitor-client process that maintains the
// availability table and directs migration when a memory-available node
// withdraws its memory.
type Client struct {
	node   int
	ep     *transport.SimEndpoint
	layout transport.Layout
	avail  *AvailTable
	table  *memtable.Table // attached after table construction

	// lines records each swapped-out line: its holder (latest known) and
	// accounted bytes, and, while fault tolerance is enabled, a shadow copy
	// so a line held by a store that dies can be rebuilt locally. The
	// shadow stands in for recomputing the lost candidates from the pass
	// data, at RecoverCPU per entry. A line is tainted when its holder was
	// presumed dead (updates went only to the shadow) and then revived (a
	// partition that healed): the revived copy is never served.
	lines      ledger
	destStates map[int]destState

	// UnavailableThreshold: a report at or below this many free bytes marks
	// the node unavailable and triggers migration of our lines away from it.
	UnavailableThreshold int64

	// ReportCPU is compute charged per processed availability report — the
	// "monitoring and communication overhead" on application nodes that
	// makes very short intervals degrade performance (§5.4). It contends on
	// the node CPU when the monitor-client process is bound to one.
	ReportCPU sim.Duration

	// Fault-tolerance knobs. All zero disables fault tolerance and restores
	// the original fail-stop behavior (block forever on a silent store).

	// FetchTimeout bounds one fetch attempt's wait for a reply; the window
	// doubles on each retry. Zero waits forever.
	FetchTimeout sim.Duration
	// FetchRetries is how many times a timed-out fetch is re-issued before
	// the holder is declared dead.
	FetchRetries int
	// RetryBackoff is the pause before the first retry, doubling per retry.
	RetryBackoff sim.Duration
	// DeadAfter declares a store dead when its MemReports have been silent
	// this long. Set it to at least twice the monitor interval, or healthy
	// stores get spuriously declared dead between reports. Zero disables
	// heartbeat failure detection.
	DeadAfter sim.Duration
	// RecoverCPU is compute charged per entry when rebuilding a lost line
	// from its shadow (modeling local recomputation of the candidates).
	RecoverCPU sim.Duration

	// Logf, when set, receives diagnostics (dropped messages, declared-dead
	// stores, recoveries).
	Logf func(format string, args ...any)

	// Rec, when non-nil, receives KFaultDetect/KRecover/KMigrateCmd/
	// KMigrateDone events attributed to this client's node.
	Rec *trace.Recorder

	stopped    bool
	rrCursor   int    // rotates swap destinations among eligible stores
	migrations uint64 // migration rounds initiated
	relocated  uint64 // lines whose location changed via MigrateDone
	fetchSeq   uint64 // request id generator for FetchReq.Seq
	res        stats.Resilience
}

// NewClient creates a client for the application node bound to ep.
func NewClient(ep *transport.SimEndpoint, layout transport.Layout) *Client {
	return &Client{
		node:                 ep.Self(),
		ep:                   ep,
		layout:               layout,
		avail:                NewAvailTable(),
		lines:                ledger{},
		destStates:           make(map[int]destState),
		UnavailableThreshold: 64 << 10,
		ReportCPU:            50 * sim.Microsecond,
	}
}

// Avail exposes the availability table (shared with the monitor client).
func (c *Client) Avail() *AvailTable { return c.avail }

// AttachTable wires the client to the table whose lines it pages; required
// before migration can relocate lines.
func (c *Client) AttachTable(t *memtable.Table) { c.table = t }

// Seed installs an initial availability estimate for a store node, standing
// in for the reports the long-running monitors had already broadcast before
// the mining program started. A seed is a capacity hint, not a heartbeat:
// the DeadAfter clock starts at the store's first real report.
func (c *Client) Seed(node int, freeBytes int64) {
	c.avail.Seed(node, freeBytes)
}

// Migrations returns how many migration rounds this client directed.
func (c *Client) Migrations() uint64 { return c.migrations }

// RelocatedLines returns how many line relocations completed.
func (c *Client) RelocatedLines() uint64 { return c.relocated }

// Resilience returns the client's fault-tolerance counters.
func (c *Client) Resilience() stats.Resilience { return c.res }

// ftEnabled reports whether any fault-tolerance mechanism is armed (and with
// it, whether shadows are retained).
func (c *Client) ftEnabled() bool { return c.FetchTimeout > 0 || c.DeadAfter > 0 }

func (c *Client) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// markDead records that a store is considered crashed: it is excluded from
// destination choice and its lines are recovered from shadows on demand.
func (c *Client) markDead(node int) {
	if c.destStates[node] == destDead {
		return
	}
	c.destStates[node] = destDead
	c.res.Failovers++
	if c.Rec.Wants(trace.KFaultDetect) {
		c.Rec.Emit(trace.Event{
			At: c.ep.Now(), Node: c.node, Kind: trace.KFaultDetect,
			Line: -1, Peer: node,
		})
	}
	c.logf("remotemem: node %d: declaring store %d dead", c.node, node)
}

// checkHeartbeats declares dead any store whose reports have gone silent
// past DeadAfter. Called lazily from the pager and on every report, so
// detection needs no extra timer process.
//
// Silence is measured against the freshest processed report, not the
// caller's clock: when this client itself is starved of CPU (a long counting
// burst) or reports queue behind bulk swap traffic, every store looks stale
// by wall clock and a clock-based sweep would mass-declare death. A store is
// declared dead only when its peers' reports kept flowing while its own
// stopped — so detection needs at least one live peer; a crashed sole store
// is caught by the fetch-timeout path instead.
func (c *Client) checkHeartbeats() {
	if c.DeadAfter <= 0 {
		return
	}
	var ref sim.Time
	for _, n := range c.avail.Known() {
		if last, ok := c.avail.LastReport(n); ok && last > ref {
			ref = last
		}
	}
	for _, n := range c.avail.Known() {
		if c.destStates[n] == destDead {
			continue
		}
		if last, ok := c.avail.LastReport(n); ok && ref.Sub(last) > c.DeadAfter {
			c.markDead(n)
		}
	}
}

// --- memtable.Pager implementation ---

// StoreOut ships a line to an available memory node. Destinations rotate
// round-robin among nodes with enough reported availability: every client
// sees only its own charges between reports, so always chasing the maximum
// would make all application nodes dogpile the same store between two
// monitor rounds.
func (c *Client) StoreOut(p transport.Proc, line int, entries []memtable.Entry) (memtable.Location, error) {
	c.checkHeartbeats()
	need := int64(len(entries)) * memtable.EntryMemBytes
	known := c.avail.Known()
	dest, ok := -1, false
	for range known {
		cand := known[c.rrCursor%len(known)]
		c.rrCursor++
		if c.destStates[cand] == destNormal && c.avail.Effective(cand) >= need {
			dest, ok = cand, true
			break
		}
	}
	if !ok {
		// Fall back to the single best candidate (covers the case where
		// rotation skipped a node that still fits).
		excluded := map[int]bool{}
		for n, st := range c.destStates {
			if st != destNormal {
				excluded[n] = true
			}
		}
		dest, ok = c.avail.PickExcluding(need, excluded)
	}
	if !ok {
		return memtable.Location{}, fmt.Errorf(
			"remotemem: node %d: no memory-available node can hold %d bytes", c.node, need)
	}
	if err := c.ep.Send(p, dest, transport.PortMem,
		StoreMsg{Owner: c.node, Line: line, Entries: entries},
		lineWireBytes(c.ep.BlockSize(), len(entries))); err != nil {
		return memtable.Location{}, fmt.Errorf("remotemem: node %d: store-out of line %d: %w", c.node, line, err)
	}
	c.avail.Charge(dest, need)
	pl := &placement{holder: dest, bytes: need}
	if c.ftEnabled() {
		pl.shadow = shadowCopy(entries)
	}
	c.lines[line] = pl
	return memtable.Location{Node: dest}, nil
}

// FetchIn retrieves a line, blocking the calling process for the round trip
// (the pagefault of §4.3). Requests may be transparently forwarded by a
// store that migrated the line away; the reply still arrives here.
//
// With FetchTimeout set, a silent holder is retried with an exponentially
// growing window and backoff; when all attempts time out — or the holder is
// already known dead — the line is rebuilt from its shadow instead of
// hanging the mining pass.
func (c *Client) FetchIn(p transport.Proc, line int, loc memtable.Location) ([]memtable.Entry, error) {
	c.checkHeartbeats()
	if pl := c.lines[line]; pl != nil && pl.tainted {
		// The holder missed updates while presumed dead and has since been
		// revived; its copy is stale. Only the shadow has the true counts.
		return c.recoverLine(p, line, loc.Node)
	}
	attempts := 1
	if c.FetchTimeout > 0 {
		attempts += c.FetchRetries
	}
	firstSeq := c.fetchSeq + 1
	target := loc.Node
	for attempt := 0; attempt < attempts; attempt++ {
		// The first attempt goes to the caller's location (a store that
		// migrated the line away forwards the request); retries go straight
		// to the latest known holder.
		if attempt > 0 {
			if pl := c.lines[line]; pl != nil {
				target = pl.holder
			}
		}
		if c.destStates[target] == destDead {
			return c.recoverLine(p, line, target)
		}
		if attempt > 0 {
			c.res.Retries++
			if pause := c.retryPause(attempt); pause > 0 {
				p.Sleep(pause)
			}
		}
		c.fetchSeq++
		if err := c.ep.Send(p, target, transport.PortMem,
			FetchReq{Owner: c.node, Line: line, Seq: c.fetchSeq}, reqWireBytes); err != nil {
			return nil, fmt.Errorf("remotemem: node %d: fetch of line %d: %w", c.node, line, err)
		}
		var deadline sim.Time
		if c.FetchTimeout > 0 {
			deadline = p.Now().Add(c.FetchTimeout << attempt)
		}
		for {
			var m transport.Message
			if c.FetchTimeout > 0 {
				remaining := deadline.Sub(p.Now())
				if remaining <= 0 {
					c.res.DeadlineHits++
					break // next attempt
				}
				got := false
				var err error
				m, got, err = c.ep.RecvTimeout(p, transport.PortMemReply, remaining)
				if err != nil {
					return nil, fmt.Errorf("remotemem: node %d: fetch of line %d: %w", c.node, line, err)
				}
				if !got {
					c.res.DeadlineHits++
					break
				}
			} else {
				var err error
				m, err = c.ep.Recv(p, transport.PortMemReply)
				if err != nil {
					return nil, fmt.Errorf("remotemem: node %d: fetch of line %d: %w", c.node, line, err)
				}
			}
			reply, ok := m.Payload.(FetchReply)
			if !ok {
				// A stray message must not kill the mining run.
				c.logf("remotemem: node %d: dropping unexpected reply %T from node %d",
					c.node, m.Payload, m.From)
				continue
			}
			if reply.Line != line || reply.Seq < firstSeq {
				// Stale reply from an abandoned earlier fetch (delayed, not
				// lost); any attempt of this call is acceptable because the
				// line's entries cannot change while it is swapped out.
				continue
			}
			if reply.Err != "" {
				if c.hasShadow(line) {
					return c.recoverLine(p, line, target)
				}
				return nil, fmt.Errorf("remotemem: fetch of line %d: %s", line, reply.Err)
			}
			c.lines.forget(line)
			return reply.Entries, nil
		}
	}
	// Every attempt timed out: the holder is unresponsive. Declare it dead
	// so subsequent operations fail over immediately.
	c.markDead(target)
	if c.hasShadow(line) {
		return c.recoverLine(p, line, target)
	}
	return nil, fmt.Errorf("remotemem: node %d: fetch of line %d from store %d timed out after %d attempts",
		c.node, line, target, attempts)
}

// retryPause returns the backoff before retry `attempt` (1-based):
// RetryBackoff, doubling per retry.
func (c *Client) retryPause(attempt int) sim.Duration {
	return c.RetryBackoff << (attempt - 1)
}

// hasShadow reports whether a shadow copy of the line is kept.
func (c *Client) hasShadow(line int) bool {
	pl := c.lines[line]
	return pl != nil && pl.shadow != nil
}

// recoverLine rebuilds a line lost with a dead store from its shadow copy,
// charging the modeled recomputation cost.
func (c *Client) recoverLine(p transport.Proc, line, holder int) ([]memtable.Entry, error) {
	if !c.hasShadow(line) {
		return nil, fmt.Errorf("remotemem: node %d: line %d lost with dead store %d and no shadow retained",
			c.node, line, holder)
	}
	sh := c.lines[line].shadow
	start := p.Now()
	if c.RecoverCPU > 0 {
		p.Work(sim.Duration(len(sh)) * c.RecoverCPU)
	}
	c.res.LinesLost++
	if c.Rec.Wants(trace.KRecover) {
		c.Rec.Emit(trace.Event{
			At: start, Dur: p.Now().Sub(start), Node: c.node,
			Kind: trace.KRecover, Line: line, Peer: holder,
			Bytes: int64(len(sh)) * memtable.EntryMemBytes,
		})
	}
	c.logf("remotemem: node %d: recovered line %d (%d entries) lost with store %d",
		c.node, line, len(sh), holder)
	c.lines.forget(line)
	return sh, nil
}

// Update sends a one-way count increment for a pinned line (§4.4): one
// UpdateMsg per increment, the paper's wire behaviour, on which the Table-4
// calibration and the golden traces rest. The shadow, when retained, mirrors
// the increment so a later recovery carries the same counts the remote copy
// had.
func (c *Client) Update(p transport.Proc, line int, loc memtable.Location, key string) error {
	pl := c.lines.mirror(line, key)
	if c.destStates[loc.Node] == destDead {
		return nil // remote copy is gone; the shadow carries the count
	}
	if pl != nil && pl.tainted {
		return nil // remote copy already stale; the shadow is authoritative
	}
	return c.ep.Send(p, loc.Node, transport.PortMem,
		UpdateMsg{Owner: c.node, Line: line, Key: key}, updateWireBytes)
}

var _ memtable.Pager = (*Client)(nil)

// --- monitor client process ---

// Stop makes RunMonitor exit after its next message.
func (c *Client) Stop() { c.stopped = true }

// RunMonitor is the client process "running and waiting for the information
// sent from the memory monitoring processes" (§4.2). It updates the shared
// availability table and, when a memory-available node reports shortage,
// sends migration directions for this node's lines held there.
func (c *Client) RunMonitor(p transport.Proc) {
	for !c.stopped {
		m, err := c.ep.Recv(p, transport.PortMon)
		if err != nil {
			return // fabric torn down
		}
		switch msg := m.Payload.(type) {
		case MemReport:
			p.Work(c.ReportCPU)
			// Stamp with the send time, not the processing time: a backlog
			// drained after a long CPU burst must not make the first report
			// out look 30s fresher than the one behind it in the queue.
			c.avail.Report(m.SentAt, msg.Node, msg.FreeBytes)
			c.checkHeartbeats()
			c.handleReport(p, msg)
		case MigrateDone:
			c.handleMigrateDone(p, msg)
		default:
			// A stray message must not kill the monitor client.
			c.logf("remotemem: node %d monitor: dropping unexpected %T from node %d",
				c.node, m.Payload, m.From)
		}
	}
}

func (c *Client) handleReport(p transport.Proc, msg MemReport) {
	st := c.destStates[msg.Node]
	if msg.FreeBytes > c.UnavailableThreshold {
		if st == destDrained || st == destDead {
			// Node recovered (drained stores regained memory; dead stores
			// turned out to be partitioned, not crashed, and healed).
			if st == destDead {
				// While it was presumed dead, updates to lines held there
				// were applied only to their shadows (Update skips a dead
				// holder), so its copies are stale forever. Taint them: the
				// shadow stays authoritative and the remote copy is never
				// fetched. The store keeps serving *new* lines normally.
				for _, line := range c.lines.linesAt(msg.Node) {
					if pl := c.lines[line]; pl.shadow != nil {
						pl.tainted = true
					}
				}
				c.logf("remotemem: node %d: store %d revived; keeping shadows authoritative for its lines",
					c.node, msg.Node)
			}
			c.destStates[msg.Node] = destNormal
		}
		return
	}
	// Shortage detected.
	if st != destNormal {
		return // already migrating, drained, or dead
	}
	lines := c.lines.linesAt(msg.Node)
	if len(lines) == 0 {
		c.destStates[msg.Node] = destDrained
		return
	}
	excluded := map[int]bool{msg.Node: true}
	for n, s := range c.destStates {
		if s != destNormal {
			excluded[n] = true
		}
	}
	// Spread the displaced lines across every viable destination ("migrates
	// its contents to other memory available nodes") rather than piling them
	// onto one node, which would create a new hotspot for updates, fetches,
	// and the final collection.
	var dests []int
	for _, n := range c.avail.Known() {
		if !excluded[n] && c.avail.Effective(n) > 0 {
			dests = append(dests, n)
		}
	}
	if len(dests) == 0 {
		// Nowhere to migrate; leave lines in place and retry on the next
		// report (the store still holds and serves them).
		return
	}
	c.destStates[msg.Node] = destMigrating
	c.migrations++
	if c.Rec.Wants(trace.KMigrateCmd) {
		var total int64
		for _, line := range lines {
			total += c.lines[line].bytes
		}
		c.Rec.Emit(trace.Event{
			At: p.Now(), Node: c.node, Kind: trace.KMigrateCmd,
			Name: fmt.Sprintf("%d-lines", len(lines)),
			Line: -1, Peer: msg.Node, Bytes: total,
		})
	}
	perDest := make(map[int][]int, len(dests))
	for i, line := range lines {
		d := dests[i%len(dests)]
		perDest[d] = append(perDest[d], line)
		c.avail.Charge(d, c.lines[line].bytes)
	}
	// Chunk each direction so the store can interleave fault service between
	// batches instead of stalling concurrent fetches behind one long sweep.
	const chunk = 64
	for _, d := range dests {
		batch := perDest[d]
		for len(batch) > 0 {
			n := len(batch)
			if n > chunk {
				n = chunk
			}
			if err := c.ep.Send(p, msg.Node, transport.PortMem,
				MigrateCmd{Owner: c.node, Lines: batch[:n], Dest: d},
				migrateCmdWireBytes(n)); err != nil {
				c.logf("remotemem: node %d: migrate direction to store %d failed: %v",
					c.node, msg.Node, err)
				return
			}
			batch = batch[n:]
		}
	}
}

func (c *Client) handleMigrateDone(p transport.Proc, msg MigrateDone) {
	for _, line := range msg.Lines {
		pl := c.lines[line]
		if pl == nil || pl.holder != msg.From {
			continue // fetched or re-stored elsewhere in the meantime
		}
		pl.holder = msg.Dest
		if c.table != nil && !c.table.IsResident(line) {
			if err := c.table.Relocate(line, memtable.Location{Node: msg.Dest}); err == nil {
				c.relocated++
			}
		}
	}
	c.destStates[msg.From] = destDrained
	if c.Rec.Wants(trace.KMigrateDone) {
		c.Rec.Emit(trace.Event{
			At: c.ep.Now(), Node: c.node, Kind: trace.KMigrateDone,
			Name: fmt.Sprintf("%d-lines", len(msg.Lines)),
			Line: -1, Peer: msg.From,
		})
	}
}
