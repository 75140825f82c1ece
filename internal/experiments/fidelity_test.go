package experiments

import (
	"strings"
	"testing"
)

// TestFidelityLevelA runs the transport audit at tiny scale: the simulated
// fabric and a live loopback TCP mesh (with a real in-process rmtp fleet)
// must mine identical itemsets with matching swap-operation counts. The
// experiment itself fails hard on any divergence, so the test mostly
// asserts it completes and that every audit row reports a match.
func TestFidelityLevelA(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("live TCP fidelity audit is slow; skipped in -short")
	}
	r, err := Fidelity(Options{Scale: 0.002, Seed: 1, AppNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Table.Rows) < 5 {
		t.Fatalf("audit table too small: %d rows", len(r.Table.Rows))
	}
	for _, row := range r.Table.Rows {
		verdict := row[len(row)-1]
		if strings.Contains(verdict, "DIVERGED") {
			t.Errorf("audit row diverged: %v", row)
		}
	}
	if !strings.Contains(r.String(), "Level A") {
		t.Error("report lost its Level A note")
	}
}
