package experiments

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// tiny is small enough that even the 25-run Fig. 3 sweep stays test-sized.
// Every test in the package calls t.Parallel: each sweep is a
// single-threaded simulation sharing no state with the others, and run one
// after another they sit at go test's 10-minute default timeout.
var tiny = Options{Scale: 0.002, Seed: 1}

func cell(t *testing.T, tblRow []string, i int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tblRow[i], 64)
	if err != nil {
		t.Fatalf("cell %d = %q: %v", i, tblRow[i], err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	t.Parallel()
	want := []string{"table2", "table3", "fig3", "table4", "fig4", "fig5"}
	seen := map[string]bool{}
	for _, e := range Registry() {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Errorf("entry %s incomplete", e.ID)
		}
	}
	for _, id := range want {
		if !seen[id] {
			t.Errorf("paper experiment %s missing", id)
		}
		if e, err := Lookup(id); err != nil || e.ID != id {
			t.Errorf("Lookup(%s) = %v, %v", id, e.ID, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestCalibrate(t *testing.T) {
	t.Parallel()
	c := Calibrate(tiny)
	if c.L1 == 0 || c.TotalC2 == 0 || len(c.PerNode) != 8 {
		t.Fatalf("calibration = %+v", c)
	}
	sum := 0
	for _, n := range c.PerNode {
		sum += n
	}
	if sum != c.TotalC2 {
		t.Errorf("per-node sums to %d, want %d", sum, c.TotalC2)
	}
	if c.LimitBytes("12MB") >= c.LimitBytes("15MB") {
		t.Error("limit ordering broken")
	}
	if c.LimitBytes("15MB") >= c.UsagePerNodeBytes {
		t.Error("15MB-equivalent limit should still be under full usage")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown label accepted")
		}
	}()
	c.LimitBytes("99MB")
}

func TestTable2Shape(t *testing.T) {
	t.Parallel()
	rep, err := Table2(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "table2" || len(rep.Table.Rows) < 3 {
		t.Fatalf("report: %s", rep)
	}
	// Pass 2 candidates dominate.
	c2 := cell(t, rep.Table.Rows[1], 1)
	for i, row := range rep.Table.Rows {
		if i == 1 {
			continue
		}
		if c := cell(t, row, 1); c >= c2 && row[1] != "-" {
			t.Errorf("pass %s candidates %.0f >= C2 %.0f", row[0], c, c2)
		}
	}
}

func TestTable3SumsAndBalance(t *testing.T) {
	t.Parallel()
	rep, err := Table3(tiny)
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Table.Rows
	if len(rows) != 9 { // 8 nodes + total
		t.Fatalf("rows = %d", len(rows))
	}
	sum := 0.0
	for _, row := range rows[:8] {
		sum += cell(t, row, 1)
	}
	if total := cell(t, rows[8], 1); sum != total {
		t.Errorf("nodes sum to %.0f, total says %.0f", sum, total)
	}
}

func TestFig4OrderingHolds(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	rep, err := Fig4(tiny)
	if err != nil {
		t.Fatal(err)
	}
	// Every row: disk > simple > remote update.
	for _, row := range rep.Table.Rows {
		diskT := cell(t, row, 1)
		simple := cell(t, row, 2)
		update := cell(t, row, 3)
		if !(diskT > simple && simple > update) {
			t.Errorf("limit %s: ordering violated disk=%.1f simple=%.1f update=%.1f",
				row[0], diskT, simple, update)
		}
	}
}

func TestFig3MonotoneInMemNodes(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	// The assertions below only read the 1- and 16-node endpoints, so skip
	// the interior sweep points (10 runs instead of 25 — the full-suite
	// wall-time budget is tight; cmd/experiments still runs all 25).
	o := tiny
	o.memCounts = []int{1, 16}
	rep, err := Fig3(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Table.Rows {
		// Time at 1 memory node must exceed time at 16 for limited rows.
		if row[0] == "no-limit" {
			continue
		}
		at1 := cell(t, row, 1)
		at16 := cell(t, row, 2)
		if at1 < at16 {
			t.Errorf("limit %s: 1 mem node (%.1fs) faster than 16 (%.1fs)", row[0], at1, at16)
		}
	}
	// The no-limit row is the fastest everywhere.
	last := rep.Table.Rows[len(rep.Table.Rows)-1]
	if last[0] != "no-limit" {
		t.Fatalf("last row = %s", last[0])
	}
	for col := 1; col <= 2; col++ {
		nl := cell(t, last, col)
		for _, row := range rep.Table.Rows[:len(rep.Table.Rows)-1] {
			if cell(t, row, col) < nl {
				t.Errorf("limited run beat no-limit in column %d", col)
			}
		}
	}
}

func TestTable4FaultCostRegime(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	rep, err := Table4(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Table.Rows {
		pf := cell(t, row, 4)
		if pf < 1.0 || pf > 4.0 {
			t.Errorf("limit %s: per-fault %.2f ms outside the paper's ≈2 ms regime", row[0], pf)
		}
	}
	// Tighter limits must show more faults.
	f12 := cell(t, rep.Table.Rows[0], 3)
	f15 := cell(t, rep.Table.Rows[3], 3)
	if f12 <= f15 {
		t.Errorf("faults at 12MB (%.0f) not above 15MB (%.0f)", f12, f15)
	}
}

func TestFig5MigrationNearNegligible(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	rep, err := Fig5(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Table.Rows {
		base := cell(t, row, 1)
		w2 := cell(t, row, 3)
		if w2 > base*1.25 {
			t.Errorf("limit %s: 2-node withdrawal cost %.1fs vs %.1fs base (>25%%)", row[0], w2, base)
		}
	}
}

func TestMonitorSweepShortIntervalDegrades(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	rep, err := MonitorSweep(tiny)
	if err != nil {
		t.Fatal(err)
	}
	t100ms := cell(t, rep.Table.Rows[0], 1)
	t3s := cell(t, rep.Table.Rows[3], 1)
	if t100ms <= t3s {
		t.Errorf("100ms interval (%.1fs) not slower than 3s (%.1fs)", t100ms, t3s)
	}
}

func TestDiskProfilesOrdering(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	rep, err := DiskProfiles(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Table.Rows {
		slow := cell(t, row, 1) // 7200rpm
		fast := cell(t, row, 2) // 12000rpm
		remote := cell(t, row, 3)
		if !(slow > fast && fast > remote) {
			t.Errorf("limit %s: device ordering violated %.1f/%.1f/%.1f", row[0], slow, fast, remote)
		}
	}
}

func TestBlockSizeSweepRuns(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	rep, err := BlockSizeSweep(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Table.Rows))
	}
}

func TestReportString(t *testing.T) {
	t.Parallel()
	rep, err := Table3(tiny)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"== table3", "paper:", "note:"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestHashSkewShowsImbalance(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	rep, err := HashSkew(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 2 {
		t.Fatalf("rows = %v", rep.Table.Rows)
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			t.Fatalf("spread cell %q: %v", s, err)
		}
		return v
	}
	fnv := parse(rep.Table.Rows[0][1])
	additive := parse(rep.Table.Rows[1][1])
	if additive <= fnv {
		t.Errorf("additive hash spread %.1f%% not above FNV %.1f%%", additive, fnv)
	}
}

func TestEvictionSweepRuns(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	rep, err := EvictionSweep(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Table.Rows))
	}
}

func TestSpeedupMonotone(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	rep, err := Speedup(tiny)
	if err != nil {
		t.Fatal(err)
	}
	// Execution time must not increase as nodes are added.
	prev := 1e18
	for _, row := range rep.Table.Rows {
		tv := cell(t, row, 1)
		if tv > prev*1.05 {
			t.Errorf("pass-2 time rose at %s nodes: %.1f after %.1f", row[0], tv, prev)
		}
		prev = tv
	}
}

func TestCrashRecoveryShape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-run scenario")
	}
	rep, err := CrashRecovery(tiny)
	if err != nil {
		t.Fatal(err) // CrashRecovery itself verifies itemset equality
	}
	if rep.ID != "crash-recovery" || len(rep.Table.Rows) != 2 {
		t.Fatalf("report: %s", rep)
	}
	crash := rep.Table.Rows[1]
	if cell(t, crash, 2) == 0 {
		t.Error("crash row reports zero failovers")
	}
	if cell(t, crash, 3)+cell(t, crash, 4) == 0 {
		t.Error("crash row reports no recovered lines or retries")
	}
}

func TestTimeSeriesWritesTraces(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-run scenario")
	}
	o := tiny
	o.TraceDir = t.TempDir()
	// Restrict to the update+migrate variants: they cover every export path
	// (ramp gauges, migration burst) at half the wall time, keeping the
	// package inside go test's 10-minute default timeout.
	o.onlyVariants = []string{"update", "migrate"}
	rep, err := TimeSeries(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "timeseries" || len(rep.Table.Rows) != 2 {
		t.Fatalf("report: %s", rep)
	}
	// Every variant exports one Chrome JSON and one CSV.
	for _, v := range []string{"update", "migrate"} {
		for _, name := range []string{
			"timeseries-" + v + ".trace.json",
			"timeseries-" + v + ".csv",
		} {
			fi, err := os.Stat(filepath.Join(o.TraceDir, name))
			if err != nil {
				t.Errorf("missing export: %v", err)
				continue
			}
			if fi.Size() == 0 {
				t.Errorf("%s is empty", name)
			}
		}
	}
	// The JSON must be Chrome trace_event shaped: an object with traceEvents.
	raw, err := os.ReadFile(filepath.Join(o.TraceDir, "timeseries-update.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace JSON has no events")
	}
	// The CSV's resident_bytes gauge must ramp: its node-0 maximum must
	// exceed its first value (the pass-2 occupancy climb is the whole point).
	cf, err := os.Open(filepath.Join(o.TraceDir, "timeseries-update.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	var first, max float64
	seen := false
	sc := bufio.NewScanner(cf)
	for sc.Scan() {
		f := strings.Split(sc.Text(), ",")
		if len(f) < 5 || f[0] != "gauge" || f[2] != "0" || f[3] != "resident_bytes" {
			continue
		}
		v, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			t.Fatalf("bad gauge value %q: %v", f[4], err)
		}
		if !seen {
			first, seen = v, true
		}
		if v > max {
			max = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !seen {
		t.Fatal("no node-0 resident_bytes gauges in CSV")
	}
	if max <= first {
		t.Errorf("occupancy does not ramp: first=%.0f max=%.0f", first, max)
	}
}
