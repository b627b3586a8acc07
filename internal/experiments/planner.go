package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"fuzzyjoin/internal/core"
	"fuzzyjoin/internal/datagen"
	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/plan"
)

// The planner ablation answers the question the cost planner exists
// for: does deciding the knob vector from a bounded input sample match
// what exhaustive hand-tuning would pick? Three Zipf-skewed workloads
// (light to heavy head concentration) are each joined for real under
// every hand-grid combination and under the planner's choice; makespans
// are the usual simulated cluster times (cluster.FromMetrics), so the
// planner is judged against measurements, not against its own model.

// plannerNodes is the virtual cluster the ablation prices cells on.
const plannerNodes = 4

// plannerWorkload is one Zipf-skewed corpus in the sweep.
type plannerWorkload struct {
	Name    string
	Records int
	Seed    int64
	Skew    float64
	Vocab   int
	// Tau is the workload's similarity threshold: lower thresholds
	// lengthen prefixes and grow reduce groups, the regime where the
	// kernel choice dominates the makespan.
	Tau float64
}

// plannerWorkloads span light, medium, and heavy token-frequency skew —
// the axis the kernel choice is most sensitive to.
var plannerWorkloads = []plannerWorkload{
	{Name: "zipf-1.2", Records: 5000, Seed: 101, Skew: 1.2, Vocab: 1024, Tau: 0.75},
	{Name: "zipf-2.2", Records: 5000, Seed: 102, Skew: 2.2, Vocab: 320, Tau: 0.72},
	{Name: "zipf-3.2", Records: 5000, Seed: 103, Skew: 3.2, Vocab: 96, Tau: 0.70},
}

// plannerHandGrid is the hand-tuning baseline: every end-to-end stage
// combination (Stage 1 × Stage 2 × Stage 3) crossed with the two
// reducer counts an operator actually tries — the framework default of
// a single reduce task, and one task per cluster reduce slot. Routing
// stays individual: grouped routing is the planner's edge.
func plannerHandGrid() []plan.Choice {
	var out []plan.Choice
	for _, to := range []core.TokenOrderAlg{core.BTO, core.OPTO} {
		for _, k := range []core.KernelAlg{core.BK, core.PK, core.FVT} {
			for _, rj := range []core.RecordJoinAlg{core.BRJ, core.OPRJ} {
				for _, nr := range []int{1, 4 * plannerNodes} {
					out = append(out, plan.Choice{
						TokenOrder: to, Kernel: k, RecordJoin: rj,
						Routing: core.IndividualTokens, NumReducers: nr,
					})
				}
			}
		}
	}
	return out
}

// cellLabel names a grid cell: stage combo plus reducer count.
func cellLabel(c plan.Choice) string {
	return fmt.Sprintf("%s-%s-%s-r%d", c.TokenOrder, c.Kernel, c.RecordJoin, c.NumReducers)
}

// PlannerCell is one measured grid cell.
type PlannerCell struct {
	Combo      string `json:"combo"`
	MakespanNs int64  `json:"makespan_ns"`
}

// PlannerRow is one workload's sweep: every hand cell, the planner's
// pick, and the ratios the ablation is judged on.
type PlannerRow struct {
	Workload string  `json:"workload"`
	Skew     float64 `json:"zipf_skew"`
	Records  int     `json:"records"`
	Tau      float64 `json:"tau"`
	Pairs    int64   `json:"pairs"`
	// Chosen is the planner's knob vector; PredictedNs its model
	// prediction; PlannerNs its measured simulated makespan.
	Chosen      string `json:"chosen"`
	PredictedNs int64  `json:"predicted_ns"`
	PlannerNs   int64  `json:"planner_ns"`
	// Best/Worst hand cells by measured makespan.
	BestHand    string `json:"best_hand"`
	BestHandNs  int64  `json:"best_hand_ns"`
	WorstHand   string `json:"worst_hand"`
	WorstHandNs int64  `json:"worst_hand_ns"`
	// VsBest = planner/best (≤ 1 beats every hand pick); WorstMargin =
	// worst/planner (how big a mistake the planner saved).
	VsBest      float64       `json:"vs_best"`
	WorstMargin float64       `json:"worst_margin"`
	Cells       []PlannerCell `json:"cells"`
}

// PlannerResult is the BENCH_planner.json document.
type PlannerResult struct {
	Nodes int          `json:"nodes"`
	Rows  []PlannerRow `json:"rows"`
}

// runPlannerCell self-joins the lines under one knob vector and returns
// the simulated makespan of all executed jobs plus the pair count.
func (s *Suite) runPlannerCell(lines []string, tau float64, c plan.Choice) (time.Duration, int64, error) {
	fs := dfs.New(dfs.Options{BlockSize: s.w.p.BlockSize, Nodes: plannerNodes})
	if err := mapreduce.WriteTextFile(fs, "in", lines); err != nil {
		return 0, 0, err
	}
	cfg := c.Apply(s.w.baseCfg(fs, plannerNodes))
	cfg.Threshold, cfg.Work = tau, "cell"
	res, err := core.SelfJoin(cfg, "in")
	if err != nil {
		return 0, 0, err
	}
	return simulate(spec(plannerNodes), res.AllJobs()), res.Pairs, nil
}

// PlannerAblation sweeps the hand grid and the planner over the skewed
// workloads. Every cell of a workload must produce the same pair count
// — the admissibility invariant re-checked at suite scale.
func (s *Suite) PlannerAblation() (*PlannerResult, error) {
	r := &PlannerResult{Nodes: plannerNodes}
	for _, w := range plannerWorkloads {
		lines := datagen.Lines(datagen.Generate(datagen.Spec{
			Records: w.Records, Seed: w.Seed, ZipfSkew: w.Skew, VocabSize: w.Vocab,
		}))
		row := PlannerRow{Workload: w.Name, Skew: w.Skew, Records: w.Records, Tau: w.Tau, Pairs: -1}

		for _, c := range plannerHandGrid() {
			mk, pairs, err := s.runPlannerCell(lines, w.Tau, c)
			if err != nil {
				return nil, fmt.Errorf("planner %s cell %s: %w", w.Name, c, err)
			}
			if row.Pairs < 0 {
				row.Pairs = pairs
			} else if pairs != row.Pairs {
				return nil, fmt.Errorf("planner %s cell %s: %d pairs, grid found %d", w.Name, c, pairs, row.Pairs)
			}
			label := cellLabel(c)
			row.Cells = append(row.Cells, PlannerCell{Combo: label, MakespanNs: mk.Nanoseconds()})
			if row.BestHandNs == 0 || mk.Nanoseconds() < row.BestHandNs {
				row.BestHand, row.BestHandNs = label, mk.Nanoseconds()
			}
			if mk.Nanoseconds() > row.WorstHandNs {
				row.WorstHand, row.WorstHandNs = label, mk.Nanoseconds()
			}
		}

		sample, err := plan.New(lines, nil, plan.Options{Threshold: w.Tau})
		if err != nil {
			return nil, fmt.Errorf("planner %s: sampling: %w", w.Name, err)
		}
		p := plan.Decide(sample, plannerNodes)
		mk, pairs, err := s.runPlannerCell(lines, w.Tau, p.Best)
		if err != nil {
			return nil, fmt.Errorf("planner %s: chosen %s: %w", w.Name, p.Best, err)
		}
		if pairs != row.Pairs {
			return nil, fmt.Errorf("planner %s: chosen %s changed the result: %d pairs, grid found %d",
				w.Name, p.Best, pairs, row.Pairs)
		}
		row.Chosen = p.Best.String()
		row.PredictedNs = p.Predicted.Nanoseconds()
		row.PlannerNs = mk.Nanoseconds()
		row.VsBest = float64(row.PlannerNs) / float64(row.BestHandNs)
		row.WorstMargin = float64(row.WorstHandNs) / float64(row.PlannerNs)
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

// Render prints one table per workload plus the verdict line.
func (r *PlannerResult) Render() string {
	out := fmt.Sprintf("Planner ablation: sampled cost-based planning vs the %d-cell hand grid (%d nodes)\n",
		len(plannerHandGrid()), r.Nodes)
	out += "(makespans are simulated cluster times of real job executions; vs-best <= 1 beats every hand pick)\n\n"
	for _, row := range r.Rows {
		rows := make([][]string, 0, len(row.Cells)+1)
		for _, c := range row.Cells {
			rows = append(rows, []string{c.Combo, seconds(time.Duration(c.MakespanNs), false)})
		}
		rows = append(rows, []string{"planner: " + row.Chosen, seconds(time.Duration(row.PlannerNs), false)})
		out += fmt.Sprintf("%s (skew %.1f, tau %.2f, %d records, %d pairs):\n", row.Workload, row.Skew, row.Tau, row.Records, row.Pairs)
		out += table([]string{"combination", "makespan (s)"}, rows)
		out += fmt.Sprintf("best hand %s (%s s), worst %s (%s s); planner vs best %.2f, worst margin %.1fx\n\n",
			row.BestHand, seconds(time.Duration(row.BestHandNs), false),
			row.WorstHand, seconds(time.Duration(row.WorstHandNs), false),
			row.VsBest, row.WorstMargin)
	}
	return out
}

// JSON renders the result as the BENCH_planner.json document.
func (r *PlannerResult) JSON() ([]byte, error) {
	doc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(doc, '\n'), nil
}
