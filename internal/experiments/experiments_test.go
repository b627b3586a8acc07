package experiments

import (
	"strings"
	"testing"
	"time"
)

// tinyParams keeps the smoke tests fast: the suite machinery is identical
// at every scale, only the corpus is smaller.
func tinyParams() Params {
	return Params{
		BaseRecords:   120,
		BaseRecordsS:  130,
		Seed:          7,
		Threshold:     0.8,
		Parallelism:   4,
		MemoryPerTask: 256 << 10,
	}
}

func TestFig8SmokeAndShape(t *testing.T) {
	p := tinyParams()
	p.BaseRecords, p.BaseRecordsS = 420, 450
	p.Parallelism = 1 // faithful costs for the x25-slower-than-x5 assertion
	p.BlockSize = 32 << 10
	s := NewSuite(p)
	r, err := s.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Times) != 3 || len(r.Times[0]) != 3 {
		t.Fatalf("shape = %dx%d", len(r.Times), len(r.Times[0]))
	}
	// Larger datasets take longer for every combo (the Figure 8 x-axis
	// trend).
	for j := range PaperCombos {
		if r.Times[2][j].OOM {
			continue
		}
		if r.Times[2][j].Total <= r.Times[0][j].Total {
			t.Fatalf("combo %v: x25 (%v) not slower than x5 (%v)",
				PaperCombos[j], r.Times[2][j].Total, r.Times[0][j].Total)
		}
	}
	out := r.Render()
	if !strings.Contains(out, "BTO-PK-OPRJ") || !strings.Contains(out, "x25") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

func TestFig9SpeedupShape(t *testing.T) {
	// Time-shape assertions need faithful task costs: real work per cell
	// (the 120-record smoke corpus is overhead-dominated) and serial task
	// execution (Parallelism > 1 on a small host inflates measured costs
	// with co-scheduling contention — the reason DefaultParams uses 1).
	p := tinyParams()
	p.BaseRecords, p.BaseRecordsS = 420, 450
	p.Parallelism = 1
	p.BlockSize = 32 << 10 // ~37 splits at x10: the wave structure needs splits >> slots
	s := NewSuite(p)
	r, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for j := range PaperCombos {
		sp := r.Speedup(j)
		if sp[0] != 1 {
			t.Fatalf("combo %d: speedup at first point = %v", j, sp[0])
		}
		last := sp[len(sp)-1]
		ideal := float64(r.Nodes[len(r.Nodes)-1]) / float64(r.Nodes[0])
		if last <= 1.05 {
			t.Fatalf("combo %v: no speedup from 2 to 10 nodes (%.2f)", PaperCombos[j], last)
		}
		if last > ideal+0.25 {
			t.Fatalf("combo %v: superlinear speedup %.2f (ideal %.2f)", PaperCombos[j], last, ideal)
		}
	}
	if !strings.Contains(r.Render(), "ideal") {
		t.Fatal("render missing ideal column")
	}
}

func TestTable1Shape(t *testing.T) {
	s := NewSuite(tinyParams())
	r, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cols) != 4 || len(r.Algs) != 6 {
		t.Fatalf("shape = %d cols, %d algs", len(r.Cols), len(r.Algs))
	}
	for _, a := range r.Algs {
		if len(r.Times[a]) != 4 {
			t.Fatalf("alg %s has %d cells", a, len(r.Times[a]))
		}
		for i, d := range r.Times[a] {
			if !r.OOM[a][i] && d <= 0 {
				t.Fatalf("alg %s cell %d is %v", a, i, d)
			}
		}
	}
}

func TestAblationsSmoke(t *testing.T) {
	s := NewSuite(tinyParams())

	ga, err := s.GroupAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(ga.Groups) < 2 {
		t.Fatalf("group sweep too small: %v", ga.Groups)
	}
	// More groups → at least as many replicas... the trend the paper
	// relies on is the reverse: fewer groups → fewer replicas.
	if ga.Replicas[0] > ga.Replicas[len(ga.Replicas)-1] {
		t.Fatalf("replicas not increasing with groups: %v", ga.Replicas)
	}

	bp, err := s.BlockProcessing()
	if err != nil {
		t.Fatal(err)
	}
	if len(bp.Modes) != 4 {
		t.Fatalf("modes = %v", bp.Modes)
	}
	for i := 1; i < len(bp.Pairs); i++ {
		if bp.Pairs[i] != bp.Pairs[0] {
			t.Fatalf("§5 strategies disagree on pairs: %v", bp.Pairs)
		}
	}
	if bp.Replicas[1] <= bp.Replicas[0] {
		t.Fatalf("map-based did not replicate more than unblocked: %v", bp.Replicas)
	}
	if bp.SpillBytes[2] == 0 {
		t.Fatal("reduce-based spilled nothing")
	}
	if bp.SpillBytes[0] != 0 || bp.SpillBytes[1] != 0 || bp.SpillBytes[3] != 0 {
		t.Fatalf("unexpected spill: %v", bp.SpillBytes)
	}

	fa, err := s.FilterAblation()
	if err != nil {
		t.Fatal(err)
	}
	// Results identical across stacks; verified non-increasing as
	// filters stack up.
	for i := 1; i < len(fa.Rows); i++ {
		if fa.Results[i] != fa.Results[0] {
			t.Fatalf("filter stack changed results: %v", fa.Results)
		}
		if fa.Verified[i] > fa.Verified[i-1] {
			t.Fatalf("verified grew as filters were added: %v", fa.Verified)
		}
	}

	// Every ablation result renders to a non-degenerate table.
	for _, r := range []interface{ Render() string }{ga, bp, fa} {
		out := r.Render()
		if !strings.Contains(out, "\n") || !strings.Contains(out, "stage") {
			t.Fatalf("implausible render:\n%s", out)
		}
	}
}

func TestSkewStats(t *testing.T) {
	s := NewSuite(tinyParams())
	r, err := s.SkewStats()
	if err != nil {
		t.Fatal(err)
	}
	if r.PairCount == 0 {
		t.Fatal("no pairs")
	}
	// SkewStats counts Stage 2's output lines; they equal the joined pairs
	// only while Stage 2 writes each pair once.
	set, err := s.selfSet(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if int64(r.PairCount) != set.pairs {
		t.Fatalf("SkewStats saw %d Stage 2 pairs, Stage 3 joined %d", r.PairCount, set.pairs)
	}
	if files := set.fs.List(""); len(files) == 0 || len(files) != len(set.fs.List(set.pkPairs)) {
		t.Fatalf("cached set keeps %v, want only the PK pairs under %s", files, set.pkPairs)
	}
	if r.RIDMean < 1 || r.RIDMax < int(r.RIDMean) {
		t.Fatalf("rid stats implausible: %+v", r)
	}
	if r.RecMin > r.RecMax || r.Reducers == 0 {
		t.Fatalf("reduce stats implausible: %+v", r)
	}
	if !strings.Contains(r.Render(), "RID frequency") {
		t.Fatal("render missing content")
	}
}

func TestRSExperimentsSmoke(t *testing.T) {
	s := NewSuite(tinyParams())
	r12, err := s.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(r12.Times) != 3 {
		t.Fatalf("fig12 rows = %d", len(r12.Times))
	}
	r13, err := s.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	for j := range PaperCombos {
		sp := r13.Speedup(j)
		if !r13.Times[len(sp)-1][j].OOM && sp[len(sp)-1] <= 1 {
			t.Fatalf("R-S combo %v: no speedup (%v)", PaperCombos[j], sp)
		}
	}
	r14, err := s.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if len(r14.Times) != 5 {
		t.Fatalf("fig14 rows = %d", len(r14.Times))
	}
}

func TestScaleupRoughlyFlat(t *testing.T) {
	s := NewSuite(tinyParams())
	r, err := s.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	// Perfect scaleup is a flat line; accept up to 4× drift at tiny scale
	// (the paper's lines drift upward too).
	for j := range PaperCombos {
		first, last := r.Times[0][j], r.Times[len(r.Times)-1][j]
		if first.OOM || last.OOM {
			continue
		}
		ratio := float64(last.Total) / float64(first.Total)
		if ratio > 4 {
			t.Fatalf("combo %v scaleup ratio %.2f too steep", PaperCombos[j], ratio)
		}
	}
}

func TestParamsDefaults(t *testing.T) {
	var p Params
	p.fillDefaults()
	d := DefaultParams()
	if p.BaseRecords != d.BaseRecords || p.Threshold != d.Threshold {
		t.Fatalf("defaults not applied: %+v", p)
	}
}

func TestSecondsAndTable(t *testing.T) {
	if seconds(1500*time.Millisecond, false) != "1.50" {
		t.Fatalf("seconds = %q", seconds(1500*time.Millisecond, false))
	}
	if seconds(time.Second, true) != "OOM" {
		t.Fatal("OOM not rendered")
	}
	out := table([]string{"a", "bb"}, [][]string{{"1", "2"}})
	if !strings.Contains(out, "a   bb") && !strings.Contains(out, "a  bb") {
		t.Fatalf("table = %q", out)
	}
}

func TestSingleStageSmoke(t *testing.T) {
	s := NewSuite(tinyParams())
	r, err := s.SingleStage()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Labels) != 2 {
		t.Fatalf("labels = %v", r.Labels)
	}
	if r.Pairs[0] != r.Pairs[1] {
		t.Fatalf("designs disagree on pairs: %v", r.Pairs)
	}
	// The §2.2 alternative must shuffle strictly more.
	if r.ShuffleBytes[1] <= r.ShuffleBytes[0] {
		t.Fatalf("carry-records did not inflate shuffle: %v", r.ShuffleBytes)
	}
	if !strings.Contains(r.Render(), "carry records") {
		t.Fatal("render missing content")
	}
}

func TestThresholdSweepSmoke(t *testing.T) {
	s := NewSuite(tinyParams())
	r, err := s.ThresholdSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Thresholds) != 5 {
		t.Fatalf("thresholds = %v", r.Thresholds)
	}
	// Candidates strictly decrease as τ rises (the prefix gets shorter);
	// result pairs are non-increasing.
	for i := 1; i < len(r.Thresholds); i++ {
		if r.Candidates[i] >= r.Candidates[i-1] {
			t.Fatalf("candidates not decreasing: %v", r.Candidates)
		}
		if r.Pairs[i] > r.Pairs[i-1] {
			t.Fatalf("pairs increased with τ: %v", r.Pairs)
		}
	}
	if !strings.Contains(r.Render(), "Threshold sweep") {
		t.Fatal("render missing content")
	}
}
