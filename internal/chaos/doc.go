// Package chaos hardens the real-TCP remote-memory path by attacking it.
//
// The paper's cluster assumed a well-behaved dedicated ATM network; the
// rmtp port of its protocol initially assumed the same of TCP. This package
// removes that assumption three ways:
//
//   - Proxy is an in-process fault-injecting TCP relay (a toxiproxy in
//     miniature): rmtp clients dial it instead of the server, and a Faults
//     regime adds latency and jitter, caps bandwidth, hard-resets
//     connections mid-frame, swallows traffic into a blackhole, or refuses
//     new connections — all deterministically under a fixed seed.
//   - ServerHandle crashes and restarts a real rmtp.Server on a stable
//     address, losing its in-memory lines exactly like the dying
//     memory-available node of the paper's failure scenario.
//   - RunSoak drives a seeded store/update/fetch workload through the proxy
//     under a fault Schedule (RandomSchedule draws from the full matrix and
//     always includes one crash/restart) and checks end-state invariants:
//     every key's final count equals the locally computed model — no lost
//     lines, no lost one-way updates, no duplications from retries — and
//     teardown leaves no goroutines or file descriptors behind.
//
// The soak exercises the stack the TCP fleet runs: the rmtp client's one
// retry policy (250 ms deadlines, 3 retries, 2 ms doubling backoff with
// jitter 0.5); the server's lease-then-delete fetches and, under a small
// ServerCapacity, its capacity NACKs; and
// remotemem.TCPPager's windowed store-outs, shadow copies,
// connection-epoch verification and failover to its disk tier, a spill file
// (memtable.FilePager). A schedule step can be traced (trace.KChaos),
// stamping the operation counter in place of virtual time.
//
// Faults are scheduled on the operation counter, not wall time, so a seeded
// soak interrupts the same logical operations on every machine — failures
// reproduce by re-running the same seed.
package chaos
