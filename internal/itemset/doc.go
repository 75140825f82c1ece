// Package itemset provides the value types and algebra of association-rule
// mining: items, ordered itemsets, canonical hashing, the Apriori candidate
// join/prune step, and subset enumeration over transactions.
//
// Items are dense int32 identifiers (as produced by the Quest generator).
// An Itemset is always kept sorted ascending with no duplicates; all
// functions in this package preserve that canonical form, which is what
// makes Key (a byte-exact map key) and Hash (the value HPA partitions
// candidates by, paper §2.2) well defined.
//
// Key pieces:
//
//   - Item, Itemset, New: the canonical-form value types.
//   - Itemset.Key / Itemset.Hash / Itemset.Less: map identity, the
//     partitioning hash, and lexicographic order.
//   - AprioriGen (gen.go): the candidate generation step — join L(k-1)
//     with itself on a shared (k-2)-prefix, then prune candidates with an
//     infrequent subset.
//   - Subsets / CountSubsets: k-subset enumeration over a transaction,
//     the counting phase's inner loop on both the sequential and parallel
//     sides.
package itemset
