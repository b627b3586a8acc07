package experiments

import (
	"fmt"
	"time"
)

// ---- Figure 8: self-join total running time --------------------------

// Fig8Result reproduces Figure 8: the total running time of the three
// paper combinations self-joining DBLP×n on the 10-node cluster, with the
// per-stage breakdown of the stacked bars.
type Fig8Result struct {
	Factors []int
	// Times[i][j] is combo j on DBLP×Factors[i].
	Times [][]ComboTime
}

// Fig8 runs the experiment for n ∈ {5, 10, 25}.
func (s *Suite) Fig8() (*Fig8Result, error) {
	res := &Fig8Result{Factors: []int{5, 10, 25}}
	for _, f := range res.Factors {
		set, err := s.selfSet(f, 10)
		if err != nil {
			return nil, err
		}
		var row []ComboTime
		for _, c := range PaperCombos {
			row = append(row, set.comboTime(c, spec(10)))
		}
		res.Times = append(res.Times, row)
	}
	return res, nil
}

// Render prints the figure's data as a table.
func (r *Fig8Result) Render() string {
	header := []string{"dataset", "combo", "stage1(s)", "stage2(s)", "stage3(s)", "total(s)"}
	var rows [][]string
	for i, f := range r.Factors {
		for _, ct := range r.Times[i] {
			rows = append(rows, []string{
				fmt.Sprintf("DBLP x%d", f), ct.Combo.String(),
				seconds(ct.Stages[0], ct.OOM), seconds(ct.Stages[1], ct.OOM),
				seconds(ct.Stages[2], ct.OOM), seconds(ct.Total, ct.OOM),
			})
		}
	}
	return "Figure 8: self-join total running time, 10 nodes\n" + table(header, rows)
}

// ---- Figures 9 & 10: self-join speedup --------------------------------

// SpeedupResult reproduces Figure 9 (absolute times on 2–10 nodes) and
// Figure 10 (the same data on a relative scale, T(min nodes)/T(n)).
type SpeedupResult struct {
	Title  string
	Factor int
	Nodes  []int
	// Times[i][j] is combo j on Nodes[i].
	Times [][]ComboTime
}

// Fig9 runs the self-join speedup experiment: DBLP×10 on 2–10 nodes.
func (s *Suite) Fig9() (*SpeedupResult, error) {
	res := &SpeedupResult{Title: "Figures 9-10: self-join speedup, DBLP x10",
		Factor: 10, Nodes: []int{2, 4, 6, 8, 10}}
	for _, n := range res.Nodes {
		set, err := s.selfSet(res.Factor, n)
		if err != nil {
			return nil, err
		}
		var row []ComboTime
		for _, c := range PaperCombos {
			row = append(row, set.comboTime(c, spec(n)))
		}
		res.Times = append(res.Times, row)
	}
	return res, nil
}

// Speedup returns the Figure 10 series for one combo: T(first)/T(n).
func (r *SpeedupResult) Speedup(combo int) []float64 {
	base := r.Times[0][combo].Total
	out := make([]float64, len(r.Nodes))
	for i := range r.Nodes {
		if r.Times[i][combo].OOM || r.Times[i][combo].Total == 0 {
			out[i] = 0
			continue
		}
		out[i] = float64(base) / float64(r.Times[i][combo].Total)
	}
	return out
}

// Render prints both the absolute (Fig 9) and relative (Fig 10) views.
func (r *SpeedupResult) Render() string {
	header := []string{"nodes"}
	for _, c := range PaperCombos {
		header = append(header, c.String()+"(s)", "rel")
	}
	header = append(header, "ideal")
	var rows [][]string
	for i, n := range r.Nodes {
		row := []string{fmt.Sprintf("%d", n)}
		for j := range PaperCombos {
			ct := r.Times[i][j]
			row = append(row, seconds(ct.Total, ct.OOM),
				fmt.Sprintf("%.2f", r.Speedup(j)[i]))
		}
		row = append(row, fmt.Sprintf("%.2f", float64(n)/float64(r.Nodes[0])))
		rows = append(rows, row)
	}
	return r.Title + "\n" + table(header, rows)
}

// ---- Table 1: self-join per-stage speedup ------------------------------

// StageTableResult reproduces Table 1 (per-stage times across cluster
// sizes) or Table 2 (per-stage times along the scaleup diagonal).
type StageTableResult struct {
	Title string
	// Cols labels each column (cluster sizes or node/dataset pairs).
	Cols []string
	// Rows maps stage algorithm name to its times per column.
	Algs  []string
	Times map[string][]time.Duration
	OOM   map[string][]bool
}

var stageAlgs = []stageKey{kBTO, kOPTO, kBK, kPK, kBRJ, kOPRJ}

// Table1 runs the per-stage speedup table: DBLP×10 on 2/4/8/10 nodes.
func (s *Suite) Table1() (*StageTableResult, error) {
	nodes := []int{2, 4, 8, 10}
	res := &StageTableResult{
		Title: "Table 1: per-stage running time (s), self-join DBLP x10",
		Times: map[string][]time.Duration{},
		OOM:   map[string][]bool{},
	}
	for _, a := range stageAlgs {
		res.Algs = append(res.Algs, string(a))
	}
	for _, n := range nodes {
		res.Cols = append(res.Cols, fmt.Sprintf("%d nodes", n))
		set, err := s.selfSet(10, n)
		if err != nil {
			return nil, err
		}
		for _, a := range stageAlgs {
			run := set.stage(a)
			res.Times[string(a)] = append(res.Times[string(a)], simulate(spec(n), run.metrics))
			res.OOM[string(a)] = append(res.OOM[string(a)], run.err != nil)
		}
	}
	return res, nil
}

// Render prints the table.
func (r *StageTableResult) Render() string {
	header := append([]string{"stage/alg"}, r.Cols...)
	var rows [][]string
	for _, a := range r.Algs {
		row := []string{a}
		for i := range r.Cols {
			row = append(row, seconds(r.Times[a][i], r.OOM[a][i]))
		}
		rows = append(rows, row)
	}
	return r.Title + "\n" + table(header, rows)
}

// ---- Figure 11 & Table 2: self-join scaleup ----------------------------

// ScaleupResult reproduces Figure 11 (total times as data and cluster
// grow together; flat lines = perfect scaleup).
type ScaleupResult struct {
	Title string
	// Cells are (nodes, factor) pairs along the 2.5×/node diagonal.
	Nodes   []int
	Factors []int
	Times   [][]ComboTime
}

// Fig11 runs the self-join scaleup: (2, ×5) … (10, ×25).
func (s *Suite) Fig11() (*ScaleupResult, error) {
	res := &ScaleupResult{
		Title: "Figure 11: self-join scaleup (dataset grows 2.5x per node)",
		Nodes: []int{2, 4, 6, 8, 10}, Factors: []int{5, 10, 15, 20, 25},
	}
	for i, n := range res.Nodes {
		set, err := s.selfSet(res.Factors[i], n)
		if err != nil {
			return nil, err
		}
		var row []ComboTime
		for _, c := range PaperCombos {
			row = append(row, set.comboTime(c, spec(n)))
		}
		res.Times = append(res.Times, row)
	}
	return res, nil
}

// Render prints the scaleup series.
func (r *ScaleupResult) Render() string {
	header := []string{"nodes", "dataset"}
	for _, c := range PaperCombos {
		header = append(header, c.String()+"(s)")
	}
	var rows [][]string
	for i, n := range r.Nodes {
		row := []string{fmt.Sprintf("%d", n), fmt.Sprintf("x%d", r.Factors[i])}
		for j := range PaperCombos {
			ct := r.Times[i][j]
			row = append(row, seconds(ct.Total, ct.OOM))
		}
		rows = append(rows, row)
	}
	return r.Title + "\n" + table(header, rows)
}

// Table2 runs the per-stage scaleup table along the same diagonal.
func (s *Suite) Table2() (*StageTableResult, error) {
	nodes := []int{2, 4, 8, 10}
	factors := []int{5, 10, 20, 25}
	res := &StageTableResult{
		Title: "Table 2: per-stage running time (s), self-join scaleup",
		Times: map[string][]time.Duration{},
		OOM:   map[string][]bool{},
	}
	for _, a := range stageAlgs {
		res.Algs = append(res.Algs, string(a))
	}
	for i, n := range nodes {
		res.Cols = append(res.Cols, fmt.Sprintf("%d/x%d", n, factors[i]))
		set, err := s.selfSet(factors[i], n)
		if err != nil {
			return nil, err
		}
		for _, a := range stageAlgs {
			run := set.stage(a)
			res.Times[string(a)] = append(res.Times[string(a)], simulate(spec(n), run.metrics))
			res.OOM[string(a)] = append(res.OOM[string(a)], run.err != nil)
		}
	}
	return res, nil
}
