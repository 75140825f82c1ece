// Package rmtp implements the Remote Memory Transfer Protocol: a compact
// binary TCP protocol carrying the same operations the simulated cluster's
// remote-memory layer uses — store a hash line, fetch it back, apply
// one-way updates, migrate lines to another server, and query occupancy.
// It demonstrates that the paper's application-level remote-memory
// interface (§4.2) is directly implementable over commodity sockets; the
// examples and tests run it over loopback, and remotemem.TCPPager swaps the
// hash lines of the TCP fleet and of internal/oocmine through it.
//
// Framing: every message is
//
//	[1B op][4B line (big endian)][4B payload length][payload]
//
// Strings and line lists are length-prefixed with uvarints inside the
// payload. A hash line travels as []memtable.Entry in memtable's one entry
// codec (AppendEntries/DecodeEntries), the same bytes the spill file
// stores; rmtp has no entry type of its own. Every decoder rejects a count
// that the remaining bytes could not carry before it allocates anything. A session starts with OpHello
// carrying the client's owner id; lines are namespaced per owner, as in the
// simulated store.
//
// Every write is acked or coalesced: a store is OpStoreAck (request/reply,
// pipelined in windows), and count updates travel only in OpUpdateBatch
// frames, the one one-way op.
// Ops 2, 3 and 4 (the retired one-way store, destructive fetch and lone
// update) are unknown ops: a frame carrying one drops its connection.
//
// Key types:
//
//   - Server: holds lines under a capacity, serves all ops, and reports
//     Stats (stores/fetches/updates/migrations) and Occupancy.
//     ServerOptions arm overload protection: a session cap (MaxConns),
//     per-connection read deadlines (IdleTimeout), and a frame payload cap
//     (MaxFrameBytes) that rejects oversized lengths before allocation.
//     A store over the memory budget draws a capacity NACK (ErrCapacity at
//     the client). Server-to-server migration stores with acks too and
//     stops at the first line the destination refuses, which stays put.
//     Each session answers through a buffered writer, flushed whenever its
//     read buffer holds no further request: a lone request gets its reply
//     at once, in one write, and a pipelined window gets one write.
//   - Client: one connection with reconnect-and-retry for idempotent ops;
//     StoreMany/FetchMany/UpdateBatch/Migrate/Reset/Stat mirror the wire ops.
//     StoreMany ships lines in pipelined windows of 64 OpStoreAck frames,
//     encoded into one pooled buffer and written in one write, with the
//     acks read in order; a capacity NACK refuses only its own line, and a
//     failed window is re-sent whole (a re-store replaces the same line).
//     StoreAck is StoreMany of one line. FetchMany uses lease-then-delete (OpFetchHold + OpRelease) in
//     pipelined windows of 64 lines: the holds go out back to back, the
//     replies are read in order, and only then are the decoded lines
//     released, the same way. The server keeps a served line until the
//     client acks receipt, so a reply lost to a dead connection never loses
//     the line: the retried window re-serves it. Fetch is FetchMany of one
//     line. Options set the client's one retry policy: a per-op
//     deadline (Timeout), a per-call retry count for idempotent
//     exchanges (Retries), and a doubling, jittered backoff between
//     attempts (Backoff, Jitter). No retry state carries from one call to
//     the next; a server that stays dead costs each call its retries, and
//     the caller's fallback tier takes the line.
//   - Metrics: the client's cumulative transport counters — ops, retries,
//     connects, errors, bytes each way, and a power-of-two latency
//     histogram (trace.Histogram) over real (wall-clock) round-trip times.
//     Client.Metrics returns a copy; Metrics.Snapshot and
//     ServerMetrics.Snapshot render either side as an ordered trace.Snapshot for attaching to a
//     run recording.
//   - ServerMetrics: the server-side mirror — op totals, occupancy, wire
//     bytes each way, and a per-request service-time histogram.
//     Server.Metrics returns a copy; ServerMetrics.Snapshot (plus
//     trace.Snapshot.Map) is what rmserverd publishes live over expvar at
//     its -debug-addr.
//
// Unlike the rest of the stack, which runs in virtual time, this package
// measures real TCP behaviour; its latency numbers are wall-clock
// nanoseconds.
package rmtp
