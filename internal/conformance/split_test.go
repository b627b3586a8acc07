package conformance

import (
	"fmt"
	"testing"

	"fuzzyjoin/internal/core"
	"fuzzyjoin/internal/datagen"
	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/records"
)

// splitStage2Pairs runs a self-join and returns its final joined pairs
// plus the Stage 2 kernel job's own RID-pair output (every emitted copy,
// in part order), after checking that Stage 2 ran exactly one job.
func splitStage2Pairs(t *testing.T, lines []string, cfg core.Config) ([]records.RIDPair, []records.RIDPair) {
	t.Helper()
	fs := dfs.New(dfs.Options{BlockSize: 2 << 10, Nodes: 4})
	cfg.FS = fs
	cfg.Work = "w"
	if err := mapreduce.WriteTextFile(fs, "in", lines); err != nil {
		t.Fatal(err)
	}
	res, err := core.SelfJoin(cfg, "in")
	if err != nil {
		t.Fatal(err)
	}
	if jobs := res.Stages[1].Jobs; len(jobs) != 1 {
		t.Fatalf("Stage 2 (SplitK %d) ran %d jobs, want the kernel job alone", cfg.SplitK, len(jobs))
	}
	final, err := core.ReadJoinedPairs(fs, res.Output)
	if err != nil {
		t.Fatal(err)
	}
	ppjoin.SortPairs(final)
	raw, err := mapreduce.ReadOutputPairs(fs, res.RIDPairs)
	if err != nil {
		t.Fatal(err)
	}
	s2 := make([]records.RIDPair, 0, len(raw))
	for _, p := range raw {
		rp, err := records.DecodeRIDPair(p.Value)
		if err != nil {
			t.Fatal(err)
		}
		s2 = append(s2, rp)
	}
	return final, s2
}

// distinct canonicalizes a RID-pair stream to its sorted distinct set.
func distinct(pairs []records.RIDPair) []records.RIDPair {
	seen := map[[2]uint64]records.RIDPair{}
	for _, p := range pairs {
		seen[[2]uint64{p.A, p.B}] = p
	}
	out := make([]records.RIDPair, 0, len(seen))
	for _, p := range seen {
		out = append(out, p)
	}
	ppjoin.SortPairs(out)
	return out
}

// TestSplitPartitionEquivalence pins the skew-split correctness
// argument end to end: salted-key routing under the owner rule must
// reproduce the unsplit pipeline's output exactly — the same final
// joined pairs AND the same Stage 2 RID-pair set — across five
// Zipf-skewed workloads, three thresholds, all three kernels, and
// hot-head sizes from "one hot token" to "every token hot". The kernel
// job's own output must be duplicate-free, split or not: a same-salt pair
// meets in k cells and only the diagonal one emits it.
func TestSplitPartitionEquivalence(t *testing.T) {
	workloads := []Workload{
		{Records: 50, Seed: 21, Vocab: 64, Skew: 2.5},
		{Records: 60, Seed: 22, Vocab: 128, Skew: 1.8},
		{Records: 40, Seed: 23, Vocab: 48, Skew: 3.0, TitleMin: 4, TitleMax: 16},
		{Records: 55, Seed: 24, Vocab: 256, Skew: 1.3},
		{Records: 45, Seed: 25, Vocab: 32, Skew: 2.0, NearDupRate: 0.4},
	}
	kernels := []core.KernelAlg{core.BK, core.PK, core.FVT}
	for wi, w := range workloads {
		lines := datagen.Lines(w.SelfRecords())
		kernel := kernels[wi%len(kernels)]
		for _, tau := range []float64{0.6, 0.8, 0.95} {
			base := core.Config{
				Threshold:   tau,
				Kernel:      kernel,
				NumReducers: 3,
				Parallelism: 1,
			}
			baseFinal, baseS2 := splitStage2Pairs(t, lines, base)
			if len(baseFinal) == 0 && tau < 0.9 {
				t.Fatalf("w%d τ=%g: test premise broken, unsplit join found no pairs", wi, tau)
			}
			baseSet := distinct(baseS2)
			if len(baseS2) != len(baseSet) {
				t.Errorf("w%d/%s/τ=%g: unsplit Stage 2 output contains %d duplicate pair(s)",
					wi, kernel, tau, len(baseS2)-len(baseSet))
			}
			for _, hot := range []int{1, 8, 1 << 20} {
				cfg := base
				cfg.SplitK = 2 + wi%3 // fan-outs 2, 3, 4 across workloads
				cfg.SplitHotCount = hot
				name := fmt.Sprintf("w%d/%s/τ=%g/k=%d/hot=%d", wi, kernel, tau, cfg.SplitK, hot)
				gotFinal, gotS2 := splitStage2Pairs(t, lines, cfg)
				if d := Diff(gotFinal, baseFinal); d != "" {
					t.Errorf("%s: final output diverges from unsplit: %s", name, d)
				}
				if len(gotS2) != len(distinct(gotS2)) {
					t.Errorf("%s: split kernel job emitted %d duplicate pair(s)",
						name, len(gotS2)-len(distinct(gotS2)))
				}
				if d := Diff(distinct(gotS2), baseSet); d != "" {
					t.Errorf("%s: distinct Stage 2 pair set diverges from unsplit: %s", name, d)
				}
			}
		}
	}
}

// TestSplitGroupedRoutingEquivalence covers every kernel × routing ×
// fan-out, in particular the grouped-routing interaction: hotness is per token while
// several tokens share a synthetic group, so hot and cold cells coexist
// inside one group. The split kernel job's output is duplicate-free and
// equals the unsplit one's pair for pair.
func TestSplitGroupedRoutingEquivalence(t *testing.T) {
	w := Workload{Records: 50, Seed: 31, Vocab: 64, Skew: 2.2, NearDupRate: 0.4}
	lines := datagen.Lines(w.SelfRecords())
	for _, kernel := range []core.KernelAlg{core.BK, core.PK, core.FVT} {
		for _, routing := range []core.Routing{core.IndividualTokens, core.GroupedTokens} {
			base := core.Config{
				Threshold:   0.7,
				Kernel:      kernel,
				Routing:     routing,
				NumReducers: 3,
				Parallelism: 1,
			}
			if routing == core.GroupedTokens {
				base.NumGroups = 5
			}
			baseFinal, baseS2 := splitStage2Pairs(t, lines, base)
			if len(baseFinal) == 0 {
				t.Fatalf("%s %s: test premise broken, unsplit join found no pairs", kernel, routing)
			}
			for _, k := range []int{2, 4} {
				name := fmt.Sprintf("%s/%s/k=%d", kernel, routing, k)
				cfg := base
				cfg.SplitK = k
				cfg.SplitHotCount = 12
				gotFinal, gotS2 := splitStage2Pairs(t, lines, cfg)
				if d := Diff(gotFinal, baseFinal); d != "" {
					t.Errorf("%s: split diverges from unsplit: %s", name, d)
				}
				ppjoin.SortPairs(gotS2)
				ppjoin.SortPairs(baseS2)
				if d := Diff(gotS2, baseS2); d != "" {
					t.Errorf("%s: kernel job output is not the unsplit pair set, each pair once: %s", name, d)
				}
			}
		}
	}
}
