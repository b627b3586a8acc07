package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestPlannerAblation is the acceptance gate behind BENCH_planner.json:
// on every Zipf workload the planner's measured makespan must match or
// beat the best hand-grid cell (within the slack of one job overhead)
// and beat the worst cell by at least 2×. Makespans are simulated
// cluster times of deterministic job executions, so the assertion is
// stable; the run sweeps 3 workloads × (24 grid cells + planner) real
// joins and takes ~35s — skipped under -short.
func TestPlannerAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("planner ablation sweeps 75 real joins; skipped under -short")
	}
	s := NewSuite(DefaultParams())
	r, err := s.PlannerAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(plannerWorkloads) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(plannerWorkloads))
	}
	for _, row := range r.Rows {
		if row.Pairs <= 0 {
			t.Errorf("%s: degenerate workload, %d pairs", row.Workload, row.Pairs)
		}
		if len(row.Cells) != len(plannerHandGrid()) {
			t.Errorf("%s: %d cells, want %d", row.Workload, len(row.Cells), len(plannerHandGrid()))
		}
		// "Matches or beats": per-task costs are measured thread CPU
		// time, so identical configs can differ by a few percent between runs —
		// 1.2 is comfortably above that noise and far below the ≥2×
		// penalty of any structurally wrong pick (e.g. an -r1 cell).
		if row.VsBest > 1.20 {
			t.Errorf("%s: planner %s is %.2fx the best hand cell %s",
				row.Workload, row.Chosen, row.VsBest, row.BestHand)
		}
		// Structural sanity, noise-free: the planner must never pick the
		// serialized single-reducer layout on these parallel workloads.
		if strings.Contains(row.Chosen, "reducers=1 ") {
			t.Errorf("%s: planner chose a single reducer: %s", row.Workload, row.Chosen)
		}
		if row.WorstMargin < 2.0 {
			t.Errorf("%s: worst hand cell %s only %.2fx the planner's makespan, want >= 2x",
				row.Workload, row.WorstHand, row.WorstMargin)
		}
	}
	// The three workloads must actually span skews (the acceptance
	// criterion says "spanning Zipf skews", not three reruns of one).
	if r.Rows[0].Skew >= r.Rows[1].Skew || r.Rows[1].Skew >= r.Rows[2].Skew {
		t.Errorf("workload skews not ascending: %v, %v, %v",
			r.Rows[0].Skew, r.Rows[1].Skew, r.Rows[2].Skew)
	}

	out := r.Render()
	for _, want := range []string{"planner:", "best hand", "worst margin"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	doc, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back PlannerResult
	if err := json.Unmarshal(doc, &back); err != nil {
		t.Fatalf("BENCH_planner.json document does not round-trip: %v", err)
	}
	if len(back.Rows) != len(r.Rows) || back.Rows[0].Chosen != r.Rows[0].Chosen {
		t.Fatal("JSON round-trip lost rows")
	}
}
