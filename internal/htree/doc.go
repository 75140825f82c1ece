// Package htree implements the hash tree of Agrawal & Srikant's Apriori:
// the classic structure for counting which candidate k-itemsets occur in
// each transaction. Interior nodes hash on the item at their depth; leaves
// hold candidate lists and split when they grow past a threshold.
//
// Key pieces:
//
//   - New(k, candidates, opts): builds a tree over the candidate
//     k-itemsets; WithFanout and WithMaxLeaf tune the interior hash width
//     and the leaf split threshold.
//   - Tree.CountTransaction: enumerates the transaction's k-subsets by
//     recursive descent, incrementing every matching candidate — the inner
//     loop of a sequential Apriori pass.
//   - Tree.Frequent(minCount): the candidates that met the threshold,
//     with their counts.
//
// Status: reference baseline. The hash tree is no longer the default
// counting backend — its recursive descent chases a pointer per node and
// scatters candidate entries across the heap, which is exactly the cache
// behavior the flat kernel in internal/candtab was built to avoid (open
// addressing over parallel slices, keys packed into one arena; DESIGN.md
// §10). apriori.HashTree still selects it, the property test in
// internal/candtab holds the two backends to identical counts over
// randomized workloads, and the Pass2CountHTree benchmark keeps its cost
// on the record as the comparison point for the flat kernel.
//
// The paper's parallel algorithm uses neither structure directly: its
// counting state is the hash lines of internal/memtable (partitioned
// across nodes, each line a range of records in its table's one arena).
package htree
