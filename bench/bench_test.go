package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fuzzyjoin/internal/distrib"
	"fuzzyjoin/internal/records"
)

// testScale is the 1/50 scale every workload runs at in the tests.
const testScale = 0.02

func TestMain(m *testing.M) {
	// Forked distrib workers re-execute the test binary.
	distrib.MaybeWorker()
	os.Exit(m.Run())
}

func testOptions(t *testing.T, traced bool) options {
	return options{seed: 1, seconds: 0, scale: testScale, traced: traced, outDir: t.TempDir()}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string, workloadNames []string) {
	t.Helper()
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	return endToEnd, perLayer, workloadNames
}

// checkMetrics requires got to hold exactly the declared metrics, each
// finite and with its declared unit.
func checkMetrics(t *testing.T, got metrics, want map[string]string, nonZero bool) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("metric %s is declared in BENCHMARK.json and not emitted", name)
		case m.Unit != unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is %v", name, m.Value)
		case nonZero && m.Value == 0:
			t.Errorf("end-to-end metric %s is 0", name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is emitted and not declared in BENCHMARK.json", name)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs both passes of every workload at
// 1/50 scale: each must verify clean and emit exactly the metrics
// BENCHMARK.json declares, and the traced pass must leave a well-formed
// span tree.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	endToEnd, perLayer, names := declared(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(names), len(workloads))
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, names[i], w.name)
		}
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, testOptions(t, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("untraced: correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res.Metrics, endToEnd, true)

			o := testOptions(t, true)
			res, err = runWorkload(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("traced: %d of %d operations failed", res.Failed, res.Attempted)
			}
			checkMetrics(t, res.Metrics, perLayer, false)
			if got := res.Metrics["ssjserve.reorders"].Value; got != 1 {
				t.Errorf("ssjserve.reorders = %v, every round is built to have exactly 1", got)
			}
			checkSpanFile(t, filepath.Join(o.outDir, w.name+".trace.jsonl"))
		})
	}
}

// checkSpanFile requires a well-formed span tree: one root, every child
// inside its parent, self time never negative, and the stage spans of a
// join summing to no more than the join.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	roots := 0
	stageSum := map[int]int64{}
	for i, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", i, s.Name)
		}
		if s.Self < 0 {
			t.Errorf("span %d %s has negative self time", i, s.Name)
		}
		if s.Parent < 0 {
			roots++
			continue
		}
		if s.Parent >= i {
			t.Fatalf("span %d %s names parent %d, which does not precede it", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d %s [%d, %d] is not inside its parent %s [%d, %d]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if p.Name == "join" {
			stageSum[s.Parent] += s.End - s.Start
		}
	}
	if roots != 1 {
		t.Errorf("%d root spans, want 1", roots)
	}
	if len(stageSum) != baselineJoins {
		t.Errorf("%d join spans with children, want %d", len(stageSum), baselineJoins)
	}
	for id, sum := range stageSum {
		if join := spans[id].End - spans[id].Start; sum > join {
			t.Errorf("join span %d: its stages sum to %d ns, more than its own %d ns", id, sum, join)
		}
	}
}

// TestTailNeedsTenSamplesBeyond pins the percentile rule: a percentile
// is reported only with at least ten samples beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n         int
		pct, want float64
	}{
		{8, 50, 4.5},    // too few for any percentile: the median
		{39, 50, 20},    // p75 of 39 would leave 9 beyond
		{40, 75, 30},    // 10 beyond
		{199, 90, 180},  // p95 of 199 is rank 190: 9 beyond
		{200, 95, 190},  // exactly 10 beyond
		{999, 95, 950},  // p99 of 999 is rank 990: 9 beyond
		{1000, 99, 990}, // exactly 10 beyond
		{45000, 99, 44550},
	} {
		got, pct := tail(ramp(tc.n))
		if pct != tc.pct || got != tc.want {
			t.Errorf("tail of %d samples = %v at p%v, want %v at p%v", tc.n, got, pct, tc.want, tc.pct)
		}
	}
}

// TestCompare checks the regression gate: identical files pass, a metric
// worse by more than its bound fails, a rise in failed operations fails,
// and files recorded under different conditions are refused.
func TestCompare(t *testing.T) {
	bounds := filepath.Join("..", "BENCHMARK.json")
	base := resultFile{NProc: 2, GOMAXPROCS: 2, Seed: 1, Scale: 1, Seconds: 12, Workloads: map[string]workloadResults{}}
	for _, w := range workloads {
		base.Workloads[w.name] = workloadResults{EndToEnd: result{Correct: true, Attempted: 100, Metrics: metrics{
			"setup_s": {1, "s"}, "wall_s": {2, "s"}, "alloc_mb": {300, "MB"}, "peak_rss_mb": {100, "MB"}, "tail_ms": {5, "ms"},
		}}}
	}
	dir := t.TempDir()
	write := func(name string, edit func(*resultFile)) string {
		var rf resultFile
		doc, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(doc, &rf); err != nil { // deep copy
			t.Fatal(err)
		}
		edit(&rf)
		if doc, err = json.Marshal(rf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", func(*resultFile) {})

	var out bytes.Buffer
	if ok, err := compareFiles(&out, bounds, a, a); err != nil || !ok {
		t.Errorf("identical files: ok %v, err %v\n%s", ok, err, out.String())
	}

	// wall_s just above its bound is a regression, just below is not,
	// whatever bound BENCHMARK.json currently fixes.
	var spec benchmarkSpec
	if err := readJSON(bounds, &spec); err != nil {
		t.Fatal(err)
	}
	bound := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bound[m.Name] = m.Bound
	}
	scaleMetric := func(name, metricName string, factor float64) string {
		return write(name, func(rf *resultFile) {
			m := rf.Workloads["self_dblp"].EndToEnd.Metrics
			m[metricName] = metric{m[metricName].Value * factor, m[metricName].Unit}
		})
	}
	slower := scaleMetric("slower.json", "wall_s", 1+bound["wall_s"]+0.05)
	out.Reset()
	if ok, err := compareFiles(&out, bounds, a, slower); err != nil || ok {
		t.Errorf("wall_s %.0f%% worse on self_dblp: ok %v, err %v; want a regression\n%s", 100*(bound["wall_s"]+0.05), ok, err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("no REGRESSION row in:\n%s", out.String())
	}
	out.Reset()
	if ok, err := compareFiles(&out, bounds, slower, a); err != nil || !ok {
		t.Errorf("a faster B must pass: ok %v, err %v", ok, err)
	}
	within := scaleMetric("within.json", "wall_s", 1+bound["wall_s"]-0.05)
	out.Reset()
	if ok, err := compareFiles(&out, bounds, a, within); err != nil || !ok {
		t.Errorf("wall_s inside its bound: ok %v, err %v; want a pass\n%s", ok, err, out.String())
	}
	// alloc_mb repeats within 1.4 % and is bounded at 5 %: +20 % is flagged.
	hungrier := scaleMetric("hungrier.json", "alloc_mb", 1.2)
	out.Reset()
	if ok, err := compareFiles(&out, bounds, a, hungrier); err != nil || ok {
		t.Errorf("+20%% alloc_mb on self_dblp: ok %v, err %v; want a regression", ok, err)
	}

	failing := write("failing.json", func(rf *resultFile) {
		wr := rf.Workloads["serve_mixed"]
		wr.EndToEnd.Failed = 1
		rf.Workloads["serve_mixed"] = wr
	})
	out.Reset()
	if ok, err := compareFiles(&out, bounds, a, failing); err != nil || ok {
		t.Errorf("a rise in failed operations: ok %v, err %v; want a regression", ok, err)
	}

	otherHost := write("other.json", func(rf *resultFile) { rf.NProc = 8 })
	if _, err := compareFiles(&out, bounds, a, otherHost); err == nil {
		t.Error("files with different nproc were compared")
	}

	oneCPU := write("one.json", func(rf *resultFile) { rf.NProc, rf.GOMAXPROCS = 1, 1 })
	out.Reset()
	if _, err := compareFiles(&out, bounds, oneCPU, oneCPU); err != nil || !strings.Contains(out.String(), "cpus < 2") {
		t.Errorf("no cpus < 2 warning for dist_self on a 1-CPU host (err %v):\n%s", err, out.String())
	}
}

// TestDroppedPairIsCaught checks the verifier itself: a join output with
// one pair missing differs from the reference digest, and a brute-force
// sample whose neighbour is missing counts as a failed operation.
func TestDroppedPairIsCaught(t *testing.T) {
	w := findWorkload("self_dblp")
	d := w.generate(1, testScale, nil, -1)
	k := rankDataset(d)
	ref, _ := referenceJoin(k, w.cfg)
	if len(ref) < 2 {
		t.Fatalf("reference has %d pairs; the workload must have some", len(ref))
	}
	want := digest(ref, true)
	dropped := append([]records.RIDPair(nil), ref[1:]...)
	if got := digest(dropped, true); got == want {
		t.Error("a pair set with one pair dropped has the reference's digest")
	}

	// Brute force over every record: all pass on the full answer, and
	// the two records of the dropped pair fail without it.
	every := make([]int, len(k.r))
	for i := range every {
		every[i] = i
	}
	check := func(pairs []records.RIDPair) *checker {
		c := &checker{}
		bruteForce(c, k, w.cfg, pairs, every)
		return c
	}
	if c := check(ref); c.failed != 0 {
		t.Errorf("brute force disagrees with the reference on %d of %d records", c.failed, c.attempted)
	}
	if c := check(dropped); c.failed != 2 {
		t.Errorf("dropping one pair failed %d brute-force checks, want 2 (its two records)", c.failed)
	}
}
