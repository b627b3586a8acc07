package plan

import (
	"reflect"
	"testing"
	"time"

	"fuzzyjoin/internal/core"
	"fuzzyjoin/internal/datagen"
	"fuzzyjoin/internal/dfs"
)

func skewedLines(t *testing.T, n int, seed int64, skew float64, vocab int) []string {
	t.Helper()
	return datagen.Lines(datagen.Generate(datagen.Spec{
		Records: n, Seed: seed, ZipfSkew: skew, VocabSize: vocab,
	}))
}

func TestSampleDeterministic(t *testing.T) {
	lines := skewedLines(t, 400, 7, 2.0, 128)
	a, err := New(lines, nil, Options{MaxRecords: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(lines, nil, Options{MaxRecords: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same input and seed produced different samples:\n%+v\n%+v", a, b)
	}
	if a.SampledR > 100 {
		t.Fatalf("MaxRecords=100 but analyzed %d records", a.SampledR)
	}
	if a.TotalR != 400 {
		t.Fatalf("TotalR = %d, want 400", a.TotalR)
	}
	if a.Scale() < 3.5 || a.Scale() > 4.5 {
		t.Fatalf("Scale() = %g, want ~4", a.Scale())
	}
	if a.TotalReplicas == 0 || a.Vocab == 0 || a.AvgTokens <= 0 {
		t.Fatalf("degenerate sample: %+v", a)
	}
}

func TestSampleSeedChangesSelection(t *testing.T) {
	lines := skewedLines(t, 600, 9, 1.5, 256)
	a, err := New(lines, nil, Options{MaxRecords: 50, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(lines, nil, Options{MaxRecords: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Different stride phases analyze different records; the workload's
	// aggregate shape may coincide, but the full stats almost surely
	// differ. Either way both must be self-consistent samples.
	if a.SampledR == 0 || b.SampledR == 0 {
		t.Fatalf("empty sample: %d / %d", a.SampledR, b.SampledR)
	}
}

func TestSampleSkipsMalformedLines(t *testing.T) {
	lines := []string{
		"", "not a record line at all",
		"1\tefficient parallel set similarity joins\tvernica carey li\t2010",
		"   ",
		"2\tset similarity joins using mapreduce\tvernica carey\t2010",
	}
	s, err := New(lines, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.SampledR != 2 {
		t.Fatalf("SampledR = %d, want 2 (malformed lines skipped)", s.SampledR)
	}
}

func TestSampleEmptyInputErrors(t *testing.T) {
	if _, err := New([]string{"", "garbage"}, nil, Options{}); err == nil {
		t.Fatal("New on unparseable input: want error, got nil")
	}
}

func TestSampleRSOverlap(t *testing.T) {
	r := skewedLines(t, 200, 11, 1.5, 128)
	recs := datagen.Generate(datagen.Spec{Records: 200, Seed: 11, ZipfSkew: 1.5, VocabSize: 128})
	sRecs := datagen.GenerateOverlapping(recs, datagen.Spec{
		Records: 220, Seed: 12, ZipfSkew: 1.5, VocabSize: 128, StartRID: 1 << 20,
	}, 0.5)
	s, err := New(r, datagen.Lines(sRecs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.RS {
		t.Fatal("sample with S lines not marked RS")
	}
	if s.DictOverlap <= 0 || s.DictOverlap > 1 {
		t.Fatalf("DictOverlap = %g, want (0, 1]", s.DictOverlap)
	}
	if s.SampledS == 0 || s.TotalS != 220 {
		t.Fatalf("S side not sampled: %+v", s)
	}
}

func TestDecideDeterministic(t *testing.T) {
	lines := skewedLines(t, 300, 21, 2.5, 64)
	s, err := New(lines, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := Decide(s, 4), Decide(s, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Decide is not deterministic:\n%+v\n%+v", a.Best, b.Best)
	}
	// 2 token orders × 3 kernels × 2 record joins × 2 routings × 2
	// reducer counts.
	if len(a.Candidates) != 48 {
		t.Fatalf("%d candidates evaluated, want 48", len(a.Candidates))
	}
	for i := 1; i < len(a.Candidates); i++ {
		if a.Candidates[i].Predicted < a.Candidates[i-1].Predicted {
			t.Fatalf("candidates not sorted at %d: %v < %v",
				i, a.Candidates[i].Predicted, a.Candidates[i-1].Predicted)
		}
	}
	if a.Best != a.Candidates[0].Choice {
		t.Fatal("Best is not the top-ranked candidate")
	}
	if a.Predicted <= 0 {
		t.Fatalf("Predicted = %v, want > 0", a.Predicted)
	}
}

// TestDecideChoicesAreValid: every candidate the planner can emit must
// pass core.Validate when applied to a plain Config — an invalid plan
// would fail the join it was meant to speed up.
func TestDecideChoicesAreValid(t *testing.T) {
	for _, skew := range []float64{1.1, 2.0, 3.5} {
		lines := skewedLines(t, 250, 31, skew, 64)
		s, err := New(lines, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		p := Decide(s, 4)
		base := core.Config{FS: dfs.New(dfs.Options{Nodes: 1}), Work: "w"}
		for _, c := range p.Candidates {
			cfg := c.Apply(base)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("skew %g: candidate %s fails Validate: %v", skew, c.Choice, err)
			}
		}
	}
}

// TestDecideAvoidsBKUnderHeavySkew pins the planner's central economic
// judgment: with a Zipf-heavy token head, the hottest reduce group's
// quadratic BK cost dwarfs the sub-quadratic kernels, so the chosen
// kernel must not be BK.
func TestDecideAvoidsBKUnderHeavySkew(t *testing.T) {
	lines := skewedLines(t, 800, 41, 3.5, 32)
	s, err := New(lines, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := Decide(s, 4)
	if p.Best.Kernel == core.BK {
		t.Fatalf("heavy skew: planner chose BK: %s\n%s", p.Best, p.Render())
	}
}

func TestRenderMentionsChoice(t *testing.T) {
	lines := skewedLines(t, 200, 51, 2.0, 64)
	s, err := New(lines, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := Decide(s, 4)
	out := p.Render()
	if out == "" {
		t.Fatal("empty Render")
	}
	for _, want := range []string{"planner: chose", p.Best.Kernel.String(), "worst"} {
		if !contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || index(s, sub) >= 0)
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestChoiceString(t *testing.T) {
	c := Choice{
		TokenOrder: core.BTO, Kernel: core.PK, RecordJoin: core.BRJ,
		Routing: core.IndividualTokens, NumReducers: 16,
	}
	got := c.String()
	for _, want := range []string{"BTO-PK-BRJ", "routing=individual", "reducers=16"} {
		if !contains(got, want) {
			t.Fatalf("Choice.String() = %q missing %q", got, want)
		}
	}
}

func TestDecideClampsNodes(t *testing.T) {
	lines := skewedLines(t, 100, 61, 1.5, 64)
	s, err := New(lines, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := Decide(s, 0)
	if p.Nodes != 1 || p.Spec.Nodes != 1 {
		t.Fatalf("Decide(s, 0) planned for %d nodes, want 1", p.Nodes)
	}
	if p.Predicted <= 0 || p.Predicted > time.Hour {
		t.Fatalf("implausible prediction %v", p.Predicted)
	}
}
