package remotemem

import (
	"fmt"

	"repro/internal/memtable"
	"repro/internal/trace"
	"repro/internal/transport"
)

type lineKey struct {
	owner int
	line  int
}

// Store is the memory-available node server: it keeps swapped-out hash
// lines from any number of application nodes in its spare memory and
// services fetches, updates, and migration directions serially (one process
// per node, as in the paper).
type Store struct {
	node  int
	ep    *transport.SimEndpoint
	costs Costs

	capacity int64 // bytes of spare memory for swapped lines
	used     int64
	external int64 // memory claimed by "other processes" (migration experiment)

	lines   map[lineKey][]memtable.Entry
	forward map[lineKey]int // after migration: where a line went

	// Logf, when set, receives diagnostics about dropped messages.
	Logf func(format string, args ...any)

	// Rec, when non-nil, receives KStoreService/KFetchService/KUpdateApply/
	// KMigrateBatch events attributed to this store's node.
	Rec *trace.Recorder

	// Stats.
	stores, fetches, updates, migratedOut, forwarded, droppedMsgs uint64
}

// NewStore creates a store server on the node bound to ep with the given
// spare capacity; call Run from a node process to serve.
func NewStore(ep *transport.SimEndpoint, capacity int64, costs Costs) *Store {
	return &Store{
		node:     ep.Self(),
		ep:       ep,
		costs:    costs,
		capacity: capacity,
		lines:    make(map[lineKey][]memtable.Entry),
		forward:  make(map[lineKey]int),
	}
}

// Node returns the store's node id.
func (s *Store) Node() int { return s.node }

// UsedBytes returns bytes of stored lines.
func (s *Store) UsedBytes() int64 { return s.used }

// FreeBytes returns the spare memory the monitor would report now.
func (s *Store) FreeBytes() int64 {
	free := s.capacity - s.used - s.external
	if free < 0 {
		free = 0
	}
	return free
}

// SetExternalLoad models other processes starting on this node and claiming
// bytes of its memory (the migration experiment's signal makes the node
// "pretend to have no available memory anymore").
func (s *Store) SetExternalLoad(bytes int64) { s.external = bytes }

// Stats returns operation counters.
func (s *Store) Stats() (stores, fetches, updates, migrated, forwarded uint64) {
	return s.stores, s.fetches, s.updates, s.migratedOut, s.forwarded
}

// DroppedMessages returns how many unknown messages the store discarded.
func (s *Store) DroppedMessages() uint64 { return s.droppedMsgs }

// HeldLines returns how many lines the store currently holds.
func (s *Store) HeldLines() int { return len(s.lines) }

// Run serves requests until the fabric is torn down (on the simulated
// backend, until traffic stops).
func (s *Store) Run(p transport.Proc) {
	for {
		m, err := s.ep.Recv(p, transport.PortMem)
		if err != nil {
			return // fabric torn down
		}
		s.handle(p, m)
	}
}

func (s *Store) handle(p transport.Proc, m transport.Message) {
	switch req := m.Payload.(type) {
	case StoreMsg:
		p.Work(s.costs.StoreService)
		key := lineKey{req.Owner, req.Line}
		cp := make([]memtable.Entry, len(req.Entries))
		copy(cp, req.Entries)
		s.lines[key] = cp
		s.used += int64(len(cp)) * memtable.EntryMemBytes
		delete(s.forward, key) // a fresh store supersedes any stale forward
		s.stores++
		if s.Rec.Wants(trace.KStoreService) {
			s.Rec.Emit(trace.Event{
				At: p.Now(), Node: s.node, Kind: trace.KStoreService,
				Line: req.Line, Peer: req.Owner,
				Bytes: int64(len(cp)) * memtable.EntryMemBytes,
			})
		}

	case FetchReq:
		p.Work(s.costs.FetchService)
		key := lineKey{req.Owner, req.Line}
		entries, ok := s.lines[key]
		if !ok {
			if dest, fwd := s.forward[key]; fwd {
				// Line migrated away; forward the request so the owner gets
				// its reply from the new holder.
				s.forwarded++
				s.send(p, dest, transport.PortMem, req, reqWireBytes)
				return
			}
			s.send(p, req.Owner, transport.PortMemReply,
				FetchReply{Line: req.Line, Seq: req.Seq, Err: fmt.Sprintf("line %d not held by node %d", req.Line, s.node)},
				reqWireBytes)
			return
		}
		delete(s.lines, key)
		s.used -= int64(len(entries)) * memtable.EntryMemBytes
		s.fetches++
		if s.Rec.Wants(trace.KFetchService) {
			s.Rec.Emit(trace.Event{
				At: p.Now(), Node: s.node, Kind: trace.KFetchService,
				Line: req.Line, Peer: req.Owner,
				Bytes: int64(len(entries)) * memtable.EntryMemBytes,
			})
		}
		s.send(p, req.Owner, transport.PortMemReply,
			FetchReply{Line: req.Line, Seq: req.Seq, Entries: entries},
			lineWireBytes(s.ep.BlockSize(), len(entries)))

	case UpdateMsg:
		p.Work(s.costs.UpdateService)
		key := lineKey{req.Owner, req.Line}
		entries, ok := s.lines[key]
		if !ok {
			if dest, fwd := s.forward[key]; fwd {
				s.forwarded++
				s.send(p, dest, transport.PortMem, req, updateWireBytes)
			}
			// A truly unknown line's update is dropped; the owner's state
			// machine makes this unreachable in normal operation.
			return
		}
		s.updates++
		memtable.Increment(entries, req.Key)
		if s.Rec.Wants(trace.KUpdateApply) {
			s.Rec.Emit(trace.Event{
				At: p.Now(), Node: s.node, Kind: trace.KUpdateApply,
				Line: req.Line, Peer: req.Owner, Bytes: updateWireBytes,
			})
		}

	case MigrateCmd:
		// Transfer the listed lines to the destination store packed into
		// message blocks, then notify the owner. Lines fetched concurrently
		// (race) are skipped.
		blockSize := s.ep.BlockSize()
		var moved []int
		batch := MigrateBatch{Owner: req.Owner}
		batchBytes := memtable.LineWireHeader
		flush := func() {
			if len(batch.Lines) == 0 {
				return
			}
			s.send(p, req.Dest, transport.PortMem, batch, batchBytes)
			batch = MigrateBatch{Owner: req.Owner}
			batchBytes = memtable.LineWireHeader
		}
		for _, line := range req.Lines {
			key := lineKey{req.Owner, line}
			entries, ok := s.lines[key]
			if !ok {
				continue
			}
			p.Work(s.costs.MigrateService)
			wire := memtable.LineWireHeader + len(entries)*memtable.EntryWireBytes
			if batchBytes+wire > blockSize && len(batch.Lines) > 0 {
				flush()
			}
			batch.Lines = append(batch.Lines, line)
			batch.Entries = append(batch.Entries, entries)
			batchBytes += wire
			s.used -= int64(len(entries)) * memtable.EntryMemBytes
			delete(s.lines, key)
			s.forward[key] = req.Dest
			s.migratedOut++
			moved = append(moved, line)
		}
		flush()
		s.send(p, req.Owner, transport.PortMon,
			MigrateDone{From: s.node, Dest: req.Dest, Lines: moved}, doneWireBytes)

	case MigrateBatch:
		// Bulk arrival of migrated lines from a withdrawing store.
		start := p.Now()
		var batchBytes int64
		for i, line := range req.Lines {
			p.Work(s.costs.StoreService)
			key := lineKey{req.Owner, line}
			cp := make([]memtable.Entry, len(req.Entries[i]))
			copy(cp, req.Entries[i])
			s.lines[key] = cp
			s.used += int64(len(cp)) * memtable.EntryMemBytes
			batchBytes += int64(len(cp)) * memtable.EntryMemBytes
			delete(s.forward, key)
			s.stores++
		}
		if s.Rec.Wants(trace.KMigrateBatch) {
			s.Rec.Emit(trace.Event{
				At: start, Dur: p.Now().Sub(start), Node: s.node,
				Kind: trace.KMigrateBatch, Line: -1, Peer: m.From,
				Bytes: batchBytes,
			})
		}

	default:
		// A stray message must not kill the server; drop it and keep serving.
		s.droppedMsgs++
		s.logf("remotemem: store %d: dropping unknown message %T from node %d", s.node, m.Payload, m.From)
	}
}

// send transmits best-effort: a server must keep serving other owners when
// one peer's edge breaks, so failures are logged, not fatal.
func (s *Store) send(p transport.Proc, to, port int, payload any, size int) {
	if err := s.ep.Send(p, to, port, payload, size); err != nil {
		s.droppedMsgs++
		s.logf("remotemem: store %d: send to node %d failed: %v", s.node, to, err)
	}
}

func (s *Store) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}
