// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): Table 2 (itemset counts per pass), Table 3 (candidate
// distribution across nodes), Figure 3 (execution time vs number of
// memory-available nodes), Table 4 (per-pagefault cost), Figure 4 (disk vs
// simple swapping vs remote update), and Figure 5 (migration overhead) —
// plus the ablations discussed in the text (monitoring interval, disk
// generation).
//
// The workloads are scaled-down versions of §5.1's (scaling the transaction
// count preserves item frequencies and therefore the candidate population
// and per-node memory pressure); memory-usage limits are expressed as the
// same fractions of per-node candidate memory that the paper's 12–15 MB
// limits were of its ≈15.3 MB per-node usage. Absolute seconds differ from
// 1997 hardware; shapes (orderings, factors, crossovers) are the
// reproduction target and are recorded against the paper's values.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/apriori"
	"repro/internal/core"
	"repro/internal/itemset"
	"repro/internal/memtable"
	"repro/internal/quest"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Options controls experiment scale and reporting.
type Options struct {
	// Scale multiplies the paper's 1,000,000-transaction workload. The
	// default 0.02 keeps every experiment CI-friendly; cmd/experiments uses
	// 0.05 by default and 1.0 is the paper's full size.
	Scale float64
	// Seed drives workload generation.
	Seed int64
	// AppNodes is the number of application execution nodes (paper: 8).
	AppNodes int
	// Out, when non-nil, receives progress lines during long sweeps.
	Out io.Writer
	// TraceDir, when non-empty, makes trace-aware experiments (timeseries)
	// write Chrome trace_event JSON and CSV time-series files there.
	TraceDir string
	// onlyVariants, when non-nil, restricts the timeseries experiment to
	// the named variants. Test-only: it keeps the full-suite wall time
	// inside go test's per-package budget.
	onlyVariants []string
	// memCounts, when non-nil, overrides Fig3's memory-node sweep points.
	// Test-only, same reason: the monotonicity test needs only the 1- and
	// 16-node endpoints, not all 25 runs.
	memCounts []int
}

// skipVariant reports whether a timeseries variant is filtered out.
func (o Options) skipVariant(label string) bool {
	if o.onlyVariants == nil {
		return false
	}
	for _, v := range o.onlyVariants {
		if v == label {
			return false
		}
	}
	return true
}

// fill sets defaults.
func (o Options) fill() Options {
	if o.Scale == 0 {
		o.Scale = 0.02
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.AppNodes == 0 {
		o.AppNodes = 8
	}
	return o
}

func (o Options) progress(format string, args ...any) {
	if o.Out != nil {
		fmt.Fprintf(o.Out, format+"\n", args...)
	}
}

// Report is one regenerated table or figure.
type Report struct {
	ID    string // e.g. "fig3"
	Title string
	// PaperNote summarizes what the paper's version shows, for side-by-side
	// reading.
	PaperNote string
	Table     *stats.Table
	Notes     []string
}

// String renders the report.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	if r.PaperNote != "" {
		fmt.Fprintf(&sb, "paper: %s\n", r.PaperNote)
	}
	sb.WriteString(r.Table.String())
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// The paper's limits as fractions of its ≈15.3 MB per-node candidate
// memory; we apply the same fractions to our measured usage so the labels
// "12MB".."15MB" denote equivalent pressure.
var limitLabels = []string{"12MB", "13MB", "14MB", "15MB"}
var limitFractions = []float64{12.0 / 15.3, 13.0 / 15.3, 14.0 / 15.3, 15.0 / 15.3}

// workload generates the §5.1 evaluation workload at the configured scale.
func workload(o Options) (quest.Params, []itemset.Itemset) {
	p := quest.PaperParams(o.Scale)
	p.Seed = o.Seed
	return p, quest.Generate(p)
}

// baseConfig is the §5.1 cluster configuration.
func baseConfig(o Options) core.Config {
	cfg := core.Defaults()
	cfg.AppNodes = o.AppNodes
	cfg.MemNodes = 16
	cfg.MinSupport = 0.001
	cfg.TotalLines = 800_000
	cfg.MaxPasses = 2 // §5 measures pass 2; passes beyond it are tiny
	return cfg
}

// partitionStats computes, without simulation, the pass-2 candidate
// population and its distribution over nodes under the HPA hash mapping.
type partitionStats struct {
	L1           int
	TotalC2      int
	PerNode      []int
	MaxPerNode   int
	UsagePerNode int64 // bytes at the busiest node
	LinesPerNode int
	TotalLines   int
}

func computePartition(txns []itemset.Itemset, minSupport float64, totalLines, nodes int) partitionStats {
	minCount := apriori.MinCount(minSupport, len(txns))
	freq := map[itemset.Item]int{}
	for _, t := range txns {
		for _, it := range t {
			freq[it]++
		}
	}
	var l1 []itemset.Itemset
	for it, c := range freq {
		if c >= minCount {
			l1 = append(l1, itemset.Itemset{it})
		}
	}
	sort.Slice(l1, func(i, j int) bool { return l1[i].Less(l1[j]) })
	cands := itemset.AprioriGen(l1)
	ps := partitionStats{
		L1:         len(l1),
		TotalC2:    cands.Len(),
		PerNode:    make([]int, nodes),
		TotalLines: totalLines,
	}
	for i := 0; i < cands.Len(); i++ {
		line := itemset.HashKey(cands.Key(i)) % uint64(totalLines)
		ps.PerNode[int(line)%nodes]++
	}
	for _, n := range ps.PerNode {
		if n > ps.MaxPerNode {
			ps.MaxPerNode = n
		}
	}
	ps.UsagePerNode = int64(ps.MaxPerNode) * memtable.EntryMemBytes
	ps.LinesPerNode = (totalLines + nodes - 1) / nodes
	return ps
}

// limitBytes maps a paper limit label to bytes at our scale.
func limitBytes(ps partitionStats, idx int) int64 {
	return int64(limitFractions[idx] * float64(ps.UsagePerNode))
}

func secs(d sim.Duration) string { return fmt.Sprintf("%.1f", d.Seconds()) }
