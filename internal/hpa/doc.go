// Package hpa implements Hash Partitioned Apriori (Shintani & Kitsuregawa),
// the parallel mining algorithm of the paper's §2.2: candidate itemsets are
// partitioned across processors by a hash function; during counting every
// node enumerates the k-subsets of its local transactions and ships each to
// the owning processor, which probes its candidate hash table and
// increments matches. Each node runs two processes — a sender scanning the
// local transaction file and a receiver owning the hash table — exactly as
// the pilot-system implementation did (§3.3).
//
// Itemset keys stay packed bytes from candidate generation to the probe
// (DESIGN.md §10.5). A data block carries its probes as two flat slices: a
// global hash line per probe and the probes' canonical keys back to back,
// 4·k bytes each, written by itemset.AppendKey. The sender appends into the
// destination's block and never touches a block once shipped, since the
// simulated fabric delivers it by reference; the receiver refuses a block
// whose key bytes do not match its line count or that names a line it does
// not own. Modelled block sizes and CPU charges are those of one 12-byte
// probe item each, so the simulator's event stream does not depend on how
// keys are held.
//
// The receiver's hash table is a memtable.Table, so pass 2 — the pass that
// dominates end-to-end time — runs under a memory-usage limit with
// whichever pager (remote memory or disk) the environment supplies.
// Resident lines are flat candtab.Line tables (open addressing over a key
// arena, no per-entry allocations; DESIGN.md §10), so the receiver's probe
// loop is cache-friendly even at paper-scale C2 while the pager boundary
// still sees the plain []memtable.Entry representation, byte-identical to
// the legacy layout. Under the remote-update policy, increments to
// pinned-remote lines leave the node as one-way update messages: one per
// increment on the simulator (the paper's message), coalesced into
// per-server batch frames by remotemem.TCPPager over real TCP.
//
// Key types:
//
//   - Env: everything a run needs — kernel, network, cluster layout,
//     per-node transactions, CPU cost model, pager factory, and the
//     optional trace recorder. Start launches all node processes.
//   - Params: algorithm knobs (min support, max passes, hash kind).
//   - CPUCosts: per-operation virtual CPU charges, calibrated so the
//     unlimited run reproduces the paper's pass-2 time scale.
//   - HashKind: the candidate-partitioning hash (the paper's modulo hash
//     plus alternatives for the skew ablation).
//   - Result and NodeStats: per-pass candidate/large counts, pass times,
//     and per-node pagefault/eviction/update/migration totals, convertible
//     to an apriori.Result for cross-checking against sequential mining.
//   - Pending: completion tracking; OnAllDone fires when every node has
//     finished, letting the harness stop monitors and tracers.
//   - Env.RestartLimit: peer-loss recovery on the TCP mesh — survivors
//     wait for the lost rank's respawned replacement and replay the
//     interrupted pass, at most RestartLimit times per node.
//
// With tracing enabled each node emits one span event per pass (named
// "pass-k"), and registers resident_bytes / out_lines gauge probes on its
// table so the tracer can sample occupancy over virtual time.
package hpa
