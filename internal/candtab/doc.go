// Package candtab implements the flat candidate table at the heart of the
// sequential counting kernel.
//
// The legacy kernel (internal/htree) chases pointers: tree nodes, per-entry
// heap objects and linear scans over string-keyed slices. Table replaces it
// with an open-addressing index (candidate ids plus one-byte fingerprints,
// linear probing, at most 3/4 full) over the packed candidate keys that
// itemset.AprioriGen produces, and one int32 count per candidate. The keys
// are indexed where they lie, so the pass's candidates exist once, and a
// probe neither allocates nor follows a pointer. internal/apriori counts
// with it by default; CountTransaction enumerates the k-subsets of each
// transaction into a reusable scratch key buffer and probes each.
//
// Duplicate candidates keep the legacy list semantics: each has its count,
// but only the first occurrence is indexed, so probes increment the first.
//
// Determinism: the hash is fixed-seed FNV-1a (never hash/maphash), because
// identically-seeded runs must produce byte-identical golden traces.
package candtab
