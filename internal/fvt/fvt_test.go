// Property tests pinning the FVT kernel against the exact brute-force
// oracle over randomized skewed workloads, mirroring
// internal/ppjoin/conformance_test.go. Lives in package fvt_test
// because it drives the tree through the conformance generator, which
// imports fvt via core.
package fvt_test

import (
	"fmt"
	"sort"
	"testing"

	"fuzzyjoin/internal/conformance"
	"fuzzyjoin/internal/datagen"
	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/fvt"
	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/tokenize"
)

func diffPairs(t *testing.T, label string, got, want []records.RIDPair) {
	t.Helper()
	ppjoin.SortPairs(got)
	ppjoin.SortPairs(want)
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

var testWorkloads = []conformance.Workload{
	{Records: 80, Seed: 21},
	{Records: 80, Seed: 22, Skew: 2.2, Vocab: 128},                   // heavy token skew
	{Records: 80, Seed: 23, TitleMin: 1, TitleMax: 4},                // short sets: prefix ≈ whole set
	{Records: 60, Seed: 24, TitleMin: 15, TitleMax: 30, Vocab: 2048}, // long sparse sets
	{Records: 100, Seed: 25, Vocab: 48, NearDupRate: 0.5},            // dense collisions
}

// TestFVTMatchesOracle runs every FVT join driver — bulk and
// tail-extended incremental, self and R-S, full filter stack and
// prefix-only — over skewed conformance workloads at
// τ ∈ {0.6, 0.8, 0.95}; each must reproduce the brute-force result
// exactly.
func TestFVTMatchesOracle(t *testing.T) {
	stacks := map[string]filter.Stack{
		"ppjoin+":     filter.AllFilters,
		"prefix-only": {},
	}
	for wi, w := range testWorkloads {
		for _, tau := range []float64{0.6, 0.8, 0.95} {
			p := conformance.Params{Threshold: tau}
			base := ppjoin.Options{Threshold: tau}

			items := conformance.Items(w.SelfRecords(), p)
			want := ppjoin.BruteForceSelf(items, base)
			if wi == 0 && tau == 0.8 && len(want) == 0 {
				t.Fatal("test premise broken: baseline oracle result empty")
			}
			rRecs, sRecs := w.RSRecords()
			rItems, sItems := conformance.ItemsRS(rRecs, sRecs, p)
			wantRS := ppjoin.BruteForceRS(rItems, sItems, base)

			for name, st := range stacks {
				opts := fvt.Options{Threshold: tau, Filters: st}
				tag := fmt.Sprintf("%s w%d τ=%g", name, wi, tau)

				var bulk, incr []records.RIDPair
				fvt.SelfJoinBulk(items, opts, func(pr records.RIDPair) { bulk = append(bulk, pr) })
				fvt.SelfJoinIncremental(items, opts, func(pr records.RIDPair) { incr = append(incr, pr) })
				diffPairs(t, "self bulk "+tag, bulk, want)
				diffPairs(t, "self incr "+tag, incr, want)

				var bulkRS, incrRS []records.RIDPair
				fvt.RSJoinBulk(rItems, sItems, opts, func(pr records.RIDPair) { bulkRS = append(bulkRS, pr) })
				fvt.RSJoinIncremental(rItems, sItems, opts, func(pr records.RIDPair) { incrRS = append(incrRS, pr) })
				diffPairs(t, "rs bulk "+tag, bulkRS, wantRS)
				diffPairs(t, "rs incr "+tag, incrRS, wantRS)
			}
		}
	}
}

// TestFVTOwnerPartition pins the emit-once ownership argument: for any
// group count, the union over groups of owner-gated joins equals the
// full result, with no pair emitted by two groups.
// selfJoin is SelfJoinBulk on a caller-made tree (one that carries an
// owner rule).
func selfJoin(tree *fvt.Tree, items []ppjoin.Item, emit func(records.RIDPair)) {
	sorted := append([]ppjoin.Item(nil), items...)
	fvt.SortItems(sorted)
	for i := range sorted {
		tree.Add(sorted[i])
	}
	for i := range sorted {
		tree.SelfProbe(sorted[i], emit)
	}
}

func TestFVTOwnerPartition(t *testing.T) {
	w := conformance.Workload{Records: 80, Seed: 22, Skew: 2.2, Vocab: 128}
	p := conformance.Params{Threshold: 0.8}
	items := conformance.Items(w.SelfRecords(), p)
	want := ppjoin.BruteForceSelf(items, ppjoin.Options{Threshold: 0.8})
	if len(want) == 0 {
		t.Fatal("test premise broken: oracle result empty")
	}
	for _, numGroups := range []uint32{1, 3, 7} {
		var union []records.RIDPair
		seen := map[[2]uint64]string{}
		for g := uint32(0); g < numGroups; g++ {
			label := fmt.Sprintf("group %d/%d", g, numGroups)
			tree := fvt.New(fvt.Options{Threshold: 0.8, Filters: filter.AllFilters})
			tree.Reset(func(tok uint32) bool { return tok%numGroups == g })
			selfJoin(tree, items, func(pr records.RIDPair) {
				key := [2]uint64{pr.A, pr.B}
				if prev, dup := seen[key]; dup {
					t.Fatalf("pair (%d,%d) emitted by both %s and %s", pr.A, pr.B, prev, label)
				}
				seen[key] = label
				union = append(union, pr)
			})
		}
		diffPairs(t, fmt.Sprintf("union of %d groups", numGroups), union, want)
	}
}

// TestFVTTailExtendedInsertion pins the incremental build path: items
// arriving later carry token ranks the
// tree has never seen (strictly larger than every earlier rank, the
// tail-extended order), and the result still matches the oracle.
func TestFVTTailExtendedInsertion(t *testing.T) {
	// Hand-built items: each wave introduces fresh higher ranks while
	// overlapping the previous wave enough to produce pairs.
	items := []ppjoin.Item{
		{RID: 1, Ranks: []uint32{0, 1, 2, 3}},
		{RID: 2, Ranks: []uint32{0, 1, 2, 4}},
		{RID: 3, Ranks: []uint32{1, 2, 3, 4, 5}},  // extends tail with 5
		{RID: 4, Ranks: []uint32{2, 3, 4, 5, 6}},  // extends tail with 6
		{RID: 5, Ranks: []uint32{5, 6, 7, 8}},     // mostly-new tail block
		{RID: 6, Ranks: []uint32{5, 6, 7, 8, 9}},  // extends tail with 9
		{RID: 7, Ranks: []uint32{0, 1, 2, 3, 10}}, // old head, fresh tail rank
	}
	for _, tau := range []float64{0.6, 0.8} {
		opts := fvt.Options{Threshold: tau, Filters: filter.AllFilters}
		want := ppjoin.BruteForceSelf(items, ppjoin.Options{Threshold: tau})
		var got []records.RIDPair
		fvt.SelfJoinIncremental(items, opts, func(pr records.RIDPair) { got = append(got, pr) })
		diffPairs(t, fmt.Sprintf("tail-extended τ=%g", tau), got, want)
	}
}

// TestFVTStats sanity-checks the counters: a candidate-free join
// reports zero materialized candidates by construction, so the stats
// only need to show the tree did real pruning and verification work.
func TestFVTStats(t *testing.T) {
	w := conformance.Workload{Records: 100, Seed: 25, Vocab: 48, NearDupRate: 0.5}
	items := conformance.Items(w.SelfRecords(), conformance.Params{Threshold: 0.8})
	opts := fvt.Options{Threshold: 0.8, Filters: filter.AllFilters}
	var n int
	st := fvt.SelfJoinBulk(items, opts, func(records.RIDPair) { n++ })
	if st.Results != int64(n) {
		t.Fatalf("Results = %d, emitted %d", st.Results, n)
	}
	if st.NodesVisited == 0 || st.CandidatesAvoided == 0 || st.Verified == 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	if st.Verified < st.Results {
		t.Fatalf("verified %d < results %d", st.Verified, st.Results)
	}
}

// TestFVTTreeAccounting pins Bytes and Len growth during incremental
// builds (the Stage 2 reducer charges Bytes deltas to the task memory
// budget).
func TestFVTTreeAccounting(t *testing.T) {
	tr := fvt.New(fvt.Options{Threshold: 0.8})
	var last int64
	for i, it := range []ppjoin.Item{
		{RID: 1, Ranks: []uint32{0, 1, 2, 3}},
		{RID: 2, Ranks: []uint32{0, 1, 2, 4}},
		{RID: 3, Ranks: []uint32{4, 5, 6, 7}},
	} {
		tr.Add(it)
		if tr.Len() != i+1 {
			t.Fatalf("Len = %d after %d adds", tr.Len(), i+1)
		}
		if tr.Bytes() <= last {
			t.Fatalf("Bytes did not grow on add %d: %d -> %d", i+1, last, tr.Bytes())
		}
		last = tr.Bytes()
	}
}

// dblpItems ranks n seeded DBLP-shaped records under their own
// rarest-first token order, the shape Stage 2 hands the tree.
func dblpItems(n int, seed int64) []ppjoin.Item {
	recs := datagen.Generate(datagen.Spec{Records: n, Seed: seed, Style: datagen.DBLPLike})
	toks := make([][]string, len(recs))
	freq := map[string]int{}
	for i, r := range recs {
		toks[i] = tokenize.Word{}.Tokenize(r.JoinAttr(records.FieldTitle, records.FieldAuthors))
		for _, t := range toks[i] {
			freq[t]++
		}
	}
	byFreq := make([]string, 0, len(freq))
	for t := range freq {
		byFreq = append(byFreq, t)
	}
	sort.Slice(byFreq, func(i, j int) bool {
		if freq[byFreq[i]] != freq[byFreq[j]] {
			return freq[byFreq[i]] < freq[byFreq[j]]
		}
		return byFreq[i] < byFreq[j]
	})
	order := tokenize.NewOrder(byFreq)
	items := make([]ppjoin.Item, len(recs))
	for i, r := range recs {
		_, ranks := order.SortByRank(toks[i])
		items[i] = ppjoin.Item{RID: r.RID, Ranks: ranks}
	}
	return items
}

// TestFVTSubtreeGate: the OR-signature gate is part of the tree, not an
// option. With only the length bound a probe walks most of the tree (as
// many nodes as it has, per probe); with the gate it reaches a handful.
func TestFVTSubtreeGate(t *testing.T) {
	items := dblpItems(2000, 7)
	opts := fvt.Options{Threshold: 0.8, Filters: filter.AllFilters}
	st := fvt.SelfJoinBulk(items, opts, func(records.RIDPair) {})
	if st.Results == 0 {
		t.Fatal("test premise broken: no results")
	}
	if perProbe := st.NodesVisited / int64(len(items)); perProbe >= 100 {
		t.Fatalf("%d nodes visited per probe over %d items, want < 100: %+v", perProbe, len(items), st)
	}
}
