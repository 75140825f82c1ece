// Package oocmine is the paper's mechanism running for real: an out-of-core
// Apriori miner whose candidate hash table lives under a hard local-memory
// budget and swaps hash lines out through a memtable.Pager, using exactly
// the paper's two policies: simple swapping (fault lines back on access,
// §4.3) and remote update (pin lines remotely and stream one-way count
// increments, §4.4).
//
// Unlike the simulated cluster (internal/core), which reproduces the
// paper's *timing* behaviour, this package is a live library a user can
// point at real rmtp servers to mine datasets whose candidate population
// exceeds local memory.
//
// Mine(txns, Config) is a thin pass loop: each pass builds a memtable.Table
// of the candidates, probes every transaction's k-subsets into it, and
// collects the counts, returning the standard apriori.Result (cross-checked
// against sequential Apriori in tests) plus the summed memtable.Stats. The
// table and the pagers are the ones the TCP fleet runs: the caller passes a
// remotemem.TCPPager for rmtp servers (windowed acked stores, shadow
// copies, connection-epoch-verified fetches), optionally with a
// memtable.FilePager as its disk tier (SpillTo), or a memtable.FilePager on
// its own for a local spill file. The root package's
// MineOutOfCore builds that pager from an OOCConfig.
package oocmine
