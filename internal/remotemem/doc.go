// Package remotemem implements the paper's contribution: dynamic use of
// available remote memory as a swap area for the candidate hash table
// (§4.2–§4.4).
//
// It provides four cooperating pieces:
//
//   - Store: the server process on a memory-available node that accepts
//     swapped-out hash lines, serves pagefault fetches, applies one-way
//     remote updates, and migrates its contents on demand (§4.2–§4.4).
//   - Monitor: the process on a memory-available node that samples free
//     memory periodically and broadcasts reports to application nodes
//     (the paper's `netstat -k` poller, §4.2).
//   - AvailTable: the client-side shared-memory table of reported
//     availability that application processes consult when choosing swap
//     destinations (§4.2).
//   - Client: the application-node pager (implements memtable.Pager) that
//     ships lines out, fault-fetches them back, or sends remote updates,
//     and directs migration when a memory node withdraws (§4.2–§4.4).
//
// The flow mirrors the paper: when the memtable exceeds its limit, the
// Client picks the memory-available node currently reporting the most free
// memory and stores whole hash lines there; under simple swapping a later
// probe of an absent line faults it back, while under remote update the
// line stays pinned remotely and the Client streams one-way count
// increments. When a monitor reports its node wants memory back (or fails
// to report at all — failure detection), the Client directs migration of
// its lines to the remaining stores, preserving counts.
//
// The simulated Client sends the paper's one UpdateMsg per increment, by
// design: the Table-4 calibration and the golden traces rest on it.
// TCPPager, the real-TCP pager, has one update path too: it coalesces
// increments per server into rmtp OpUpdateBatch frames. Its store-outs are
// windowed the same way (rmtp StoreMany): StoreOut queues the line and
// returns its first-choice server, and the pager settles each line once its
// ack arrives — placed, moved to the next server, or moved to its disk tier
// (SpillTo) — so refusal is deferred. It also implements
// memtable.BulkFetcher: at the end of a counting pass it brings every
// swapped-out line home in pipelined windows (rmtp FetchMany), verifying
// each against its shadow exactly as a single fetch is verified. The
// simulated Client keeps one fetch per pagefault, the paper's cost model.
//
// Client and TCPPager share one record of each line they placed (the
// unexported ledger): holder, accounted bytes, shadow copy, taint, and TCP's
// connection epoch. The ledger mirrors updates into shadows, lists a holder's
// lines in sorted order for migration, and forgets a line in one call; each
// pager keeps its own rules for when a remote copy goes stale.
//
// Store, Monitor, and Client all accept an optional trace.Recorder; when
// attached, store/fetch/update service times, availability reports,
// migration commands and batches, and fault detections are emitted as
// virtual-time events.
package remotemem
