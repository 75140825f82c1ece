// Package memtable implements the candidate-itemset hash table whose memory
// behaviour the paper studies (§3.3, §4.3–§4.4): itemsets live in hash
// lines ("all itemsets having the same hash value are assigned to the same
// hash line... connected with each other to form a list"), each candidate
// accounts for EntryMemBytes (24 bytes), and when total usage exceeds a
// configured limit, whole hash lines are swapped out LRU-first through a
// Pager — to a remote node's memory or to a local disk, depending on which
// pager is attached.
//
// Key types:
//
//   - Entry: one candidate and its count. A swapped-out hash line is a
//     []Entry everywhere it goes — pager shadows, the simulated stores, the
//     rmtp wire, the spill file — with one byte form (AppendEntries /
//     DecodeEntries, which bounds the declared count by the payload's bytes)
//     and one remote-update step (Increment; only the rmtp server keeps its
//     own []byte-keyed loop, which does not allocate).
//   - Table: the hash table. Insert adds candidates during candidate
//     generation; Probe increments a candidate's count during the counting
//     phase, transparently triggering eviction, pagefault, or remote-update
//     traffic as the configured Policy dictates.
//   - Config: capacity limit, eviction policy, swap policy (SimpleSwap
//     faults absent lines back on access, §4.3; RemoteUpdate pins them
//     remotely and sends one-way increments, §4.4), plus the optional
//     trace recorder and node id for event attribution.
//   - Pager: the interface to the swap device (StoreOut, FetchIn, Update).
//     Implemented by remotemem.Client (the simulated remote memory),
//     disk.SwapPager (the simulated swap disk), remotemem.TCPPager (real
//     rmserverd processes over TCP, with a FilePager as its disk tier),
//     FilePager (a local spill file of AppendEntries records) and
//     FallbackPager (the simulator's remote tier that diverts refused
//     stores to a disk tier).
//   - BulkFetcher: an optional pager interface (FetchAll) that brings many
//     swapped-out lines home in one sweep. TCPPager implements it with
//     pipelined fetch windows.
//   - Collect(p, minCount): the end of a counting pass. It faults every
//     swapped-out line home — through FetchAll when the pager has it, one
//     FetchIn per line otherwise — and returns only the entries whose count
//     reached minCount, in line order.
//   - Stats: cumulative evictions, pagefaults, and updates, read by the
//     result tables and sampled as gauges by the tracer.
//
// With tracing enabled the table emits one event per eviction (with the
// destination node and bytes shipped), per pagefault (with the source
// node), and per remote update, each carrying its virtual-time service
// duration.
package memtable
