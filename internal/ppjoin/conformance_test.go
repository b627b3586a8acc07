// Property test pinning the single-node kernels against the exact
// oracle over randomized skewed workloads. Lives in package ppjoin_test
// because it drives the kernels through the conformance generator,
// which imports ppjoin.
package ppjoin_test

import (
	"fmt"
	"testing"

	"fuzzyjoin/internal/conformance"
	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
)

func diffPairs(t *testing.T, label string, got, want []records.RIDPair) {
	t.Helper()
	ppjoin.SortPairs(got)
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, oracle has %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.A != w.A || g.B != w.B {
			t.Fatalf("%s: pair %d is (%d,%d), oracle has (%d,%d)", label, i, g.A, g.B, w.A, w.B)
		}
		if d := g.Sim - w.Sim; d > 1e-9 || d < -1e-9 {
			t.Fatalf("%s: pair (%d,%d) sim %v, oracle %v", label, g.A, g.B, g.Sim, w.Sim)
		}
	}
}

// TestKernelsMatchOracle runs PPJoin+ (full filter stack), the bare
// prefix-filter index (all filters off), and the nested-loop kernel
// over skewed conformance workloads; every one must reproduce the
// brute-force result exactly, for self and R-S joins alike, under each
// similarity function (the self-join indexes PPJoin's index prefix, whose
// completeness argument is per function).
func TestKernelsMatchOracle(t *testing.T) {
	workloads := []conformance.Workload{
		{Records: 80, Seed: 21},
		{Records: 80, Seed: 22, Skew: 2.2, Vocab: 128},                   // heavy token skew
		{Records: 80, Seed: 23, TitleMin: 1, TitleMax: 4},                // short sets: prefix ≈ whole set
		{Records: 60, Seed: 24, TitleMin: 15, TitleMax: 30, Vocab: 2048}, // long sparse sets
		{Records: 100, Seed: 25, Vocab: 48, NearDupRate: 0.5},            // dense collisions
	}
	stacks := map[string]filter.Stack{
		"ppjoin+":     filter.AllFilters,
		"prefix-only": {},
		"positional":  {Positional: true},
	}
	for wi, w := range workloads {
		for _, cell := range []struct {
			fn  simfn.Func
			tau float64
		}{
			{simfn.Jaccard, 0.6}, {simfn.Jaccard, 0.8}, {simfn.Jaccard, 0.95},
			{simfn.Cosine, 0.6}, {simfn.Cosine, 0.8}, {simfn.Cosine, 0.95},
			{simfn.Dice, 0.6}, {simfn.Dice, 0.8}, {simfn.Dice, 0.95},
		} {
			fn, tau := cell.fn, cell.tau
			p := conformance.Params{Fn: fn, Threshold: tau}
			opts := ppjoin.Options{Fn: fn, Threshold: tau}

			items := conformance.Items(w.SelfRecords(), p)
			want := ppjoin.BruteForceSelf(items, opts)
			if wi == 0 && tau == 0.8 && len(want) == 0 {
				t.Fatal("test premise broken: baseline oracle result empty")
			}
			for name, st := range stacks {
				o := opts
				o.Filters = st
				var got []records.RIDPair
				ppjoin.SelfJoin(items, o, func(pr records.RIDPair) { got = append(got, pr) })
				diffPairs(t, fmt.Sprintf("self %s w%d %s τ=%g", name, wi, fn, tau), got, want)
			}
			var nl []records.RIDPair
			ppjoin.NestedLoopSelf(items, opts, nil, func(pr records.RIDPair) { nl = append(nl, pr) })
			diffPairs(t, fmt.Sprintf("self nested-loop w%d %s τ=%g", wi, fn, tau), nl, want)

			rRecs, sRecs := w.RSRecords()
			rItems, sItems := conformance.ItemsRS(rRecs, sRecs, p)
			wantRS := ppjoin.BruteForceRS(rItems, sItems, opts)
			for name, st := range stacks {
				o := opts
				o.Filters = st
				var got []records.RIDPair
				ppjoin.RSJoin(rItems, sItems, o, func(pr records.RIDPair) { got = append(got, pr) })
				diffPairs(t, fmt.Sprintf("rs %s w%d %s τ=%g", name, wi, fn, tau), got, wantRS)
			}
			var nlRS []records.RIDPair
			ppjoin.NestedLoopRS(rItems, sItems, opts, nil, func(pr records.RIDPair) { nlRS = append(nlRS, pr) })
			diffPairs(t, fmt.Sprintf("rs nested-loop w%d %s τ=%g", wi, fn, tau), nlRS, wantRS)
		}
	}
}
