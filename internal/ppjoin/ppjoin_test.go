package ppjoin

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
)

// corpus generates n items over a universe, biased toward near-duplicate
// clusters so similar pairs actually exist.
func corpus(rng *rand.Rand, n, universe, maxLen int) []Item {
	items := make([]Item, 0, n)
	var base []uint32
	for i := 0; i < n; i++ {
		if i%4 == 0 || base == nil {
			base = randomRanks(rng, universe, maxLen)
		}
		ranks := mutate(rng, universe, base)
		items = append(items, Item{RID: uint64(i + 1), Ranks: ranks})
	}
	return items
}

func randomRanks(rng *rand.Rand, universe, maxLen int) []uint32 {
	n := 1 + rng.Intn(maxLen)
	seen := map[uint32]bool{}
	out := []uint32{}
	for len(out) < n {
		v := uint32(rng.Intn(universe))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sortRanks(out)
	return out
}

func mutate(rng *rand.Rand, universe int, base []uint32) []uint32 {
	out := append([]uint32(nil), base...)
	for e := rng.Intn(3); e > 0 && len(out) > 1; e-- {
		switch rng.Intn(2) {
		case 0:
			i := rng.Intn(len(out))
			out = append(out[:i], out[i+1:]...)
		case 1:
			v := uint32(rng.Intn(universe))
			if !contains(out, v) {
				out = append(out, v)
			}
		}
	}
	sortRanks(out)
	return out
}

func contains(s []uint32, v uint32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func sortRanks(s []uint32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func pairKey(p records.RIDPair) string { return fmt.Sprintf("%d-%d", p.A, p.B) }

func pairSet(pairs []records.RIDPair) map[string]float64 {
	m := map[string]float64{}
	for _, p := range pairs {
		m[pairKey(p)] = p.Sim
	}
	return m
}

func assertSamePairs(t *testing.T, got, want []records.RIDPair, label string) {
	t.Helper()
	gs, ws := pairSet(got), pairSet(want)
	if len(gs) != len(ws) {
		t.Fatalf("%s: got %d distinct pairs, want %d\ngot:  %v\nwant: %v", label, len(gs), len(ws), gs, ws)
	}
	for k, sim := range ws {
		g, ok := gs[k]
		if !ok {
			t.Fatalf("%s: missing pair %s", label, k)
		}
		if diff := g - sim; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s: pair %s sim %v, want %v", label, k, g, sim)
		}
	}
}

// TestSelfJoinMatchesBruteForce is the kernel-correctness anchor: PPJoin+
// with every filter combination equals brute force.
func TestSelfJoinMatchesBruteForce(t *testing.T) {
	stacks := []filter.Stack{
		{},
		{Length: true},
		{Length: true, Positional: true},
		filter.AllFilters,
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		items := corpus(rng, 60, 50, 12)
		for _, tau := range []float64{0.5, 0.8, 0.9} {
			want := BruteForceSelf(items, Options{Fn: simfn.Jaccard, Threshold: tau})
			for _, st := range stacks {
				opts := Options{Fn: simfn.Jaccard, Threshold: tau, Filters: st}
				var got []records.RIDPair
				SelfJoin(items, opts, func(p records.RIDPair) { got = append(got, p) })
				assertSamePairs(t, got, want,
					fmt.Sprintf("seed=%d τ=%v filters=%+v", seed, tau, st))
			}
		}
	}
}

func TestSelfJoinOtherFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	items := corpus(rng, 50, 40, 10)
	for _, fn := range []simfn.Func{simfn.Cosine, simfn.Dice} {
		want := BruteForceSelf(items, Options{Fn: fn, Threshold: 0.8})
		opts := Options{Fn: fn, Threshold: 0.8, Filters: filter.AllFilters}
		var got []records.RIDPair
		SelfJoin(items, opts, func(p records.RIDPair) { got = append(got, p) })
		assertSamePairs(t, got, want, fn.String())
	}
}

func TestRSJoinMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		r := corpus(rng, 40, 50, 12)
		// Derive S from R so cross-relation similar pairs exist.
		s := make([]Item, 0, 50)
		for i, it := range r {
			if i%2 == 0 {
				s = append(s, Item{RID: uint64(1000 + i), Ranks: mutate(rng, 50, it.Ranks)})
			}
		}
		s = append(s, corpus(rng, 10, 50, 12)...)
		for i := range s {
			s[i].RID = uint64(1000 + i)
		}
		for _, tau := range []float64{0.5, 0.8} {
			want := BruteForceRS(r, s, Options{Fn: simfn.Jaccard, Threshold: tau})
			opts := Options{Fn: simfn.Jaccard, Threshold: tau, Filters: filter.AllFilters}
			var got []records.RIDPair
			RSJoin(r, s, opts, func(p records.RIDPair) { got = append(got, p) })
			assertSamePairs(t, got, want, fmt.Sprintf("seed=%d τ=%v", seed, tau))
		}
	}
}

func TestNestedLoopSelfMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := corpus(rng, 60, 50, 12)
	for _, st := range []filter.Stack{{}, filter.AllFilters} {
		want := BruteForceSelf(items, Options{Fn: simfn.Jaccard, Threshold: 0.8})
		var got []records.RIDPair
		NestedLoopSelf(items, Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: st}, nil,
			func(p records.RIDPair) { got = append(got, p) })
		assertSamePairs(t, got, want, fmt.Sprintf("filters=%+v", st))
	}
}

func TestNestedLoopRSMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	r := corpus(rng, 40, 50, 12)
	s := make([]Item, len(r))
	for i, it := range r {
		s[i] = Item{RID: uint64(2000 + i), Ranks: mutate(rng, 50, it.Ranks)}
	}
	want := BruteForceRS(r, s, Options{Fn: simfn.Jaccard, Threshold: 0.8})
	var got []records.RIDPair
	NestedLoopRS(r, s, Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters}, nil,
		func(p records.RIDPair) { got = append(got, p) })
	assertSamePairs(t, got, want, "nested-rs")
}

func TestSelfJoinNoDuplicatePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	items := corpus(rng, 80, 40, 10)
	seen := map[string]bool{}
	SelfJoin(items, Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters},
		func(p records.RIDPair) {
			k := pairKey(p)
			if seen[k] {
				t.Fatalf("pair %s emitted twice", k)
			}
			seen[k] = true
		})
}

func TestIndexEvictionShrinksFootprint(t *testing.T) {
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.9, Filters: filter.AllFilters}
	ix := NewIndex(opts)
	// Short items first.
	for i := 0; i < 20; i++ {
		ranks := make([]uint32, 3)
		for j := range ranks {
			ranks[j] = uint32(i*10 + j)
		}
		ix.Add(Item{RID: uint64(i), Ranks: ranks})
	}
	before := ix.Bytes()
	if before == 0 {
		t.Fatal("index reports zero bytes after adds")
	}
	// Probe with a much longer item: τ=0.9 lower bound excludes length-3
	// items entirely, so they all evict.
	long := make([]uint32, 40)
	for j := range long {
		long[j] = uint32(1000 + j)
	}
	ix.probe(&Item{RID: 99, Ranks: long}, indexedFirst, func(records.RIDPair) {})
	if ix.Bytes() >= before {
		t.Fatalf("eviction did not shrink index: %d -> %d", before, ix.Bytes())
	}
	if ix.Bytes() != 0 {
		t.Fatalf("all items evictable but %d bytes remain", ix.Bytes())
	}
}

// TestEvictionDoesNotLoseResults: with items streamed in length order,
// eviction must never drop a pair the length filter admits.
func TestEvictionDoesNotLoseResults(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	items := corpus(rng, 100, 30, 15)
	want := BruteForceSelf(items, Options{Fn: simfn.Jaccard, Threshold: 0.7})
	var got []records.RIDPair
	SelfJoin(items, Options{Fn: simfn.Jaccard, Threshold: 0.7, Filters: filter.AllFilters},
		func(p records.RIDPair) { got = append(got, p) })
	assertSamePairs(t, got, want, "eviction-completeness")
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	items := corpus(rng, 80, 40, 10)
	full := SelfJoin(items, Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters},
		func(records.RIDPair) {})
	none := SelfJoin(items, Options{Fn: simfn.Jaccard, Threshold: 0.8},
		func(records.RIDPair) {})
	if full.Verified > full.Candidates || full.Results > full.Verified {
		t.Fatalf("stats not monotone: %+v", full)
	}
	if none.Verified > none.Candidates || none.Results > none.Verified {
		t.Fatalf("stats not monotone: %+v", none)
	}
	if full.Results != none.Results {
		t.Fatalf("filters changed results: %d vs %d", full.Results, none.Results)
	}
	if full.Verified > none.Verified {
		t.Fatalf("full filter stack verified more pairs (%d) than no filters (%d)",
			full.Verified, none.Verified)
	}
}

func TestEmptyAndSingleItem(t *testing.T) {
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters}
	if st := SelfJoin(nil, opts, func(records.RIDPair) { t.Fatal("emit on empty") }); st.Results != 0 {
		t.Fatalf("stats = %+v", st)
	}
	SelfJoin([]Item{{RID: 1, Ranks: []uint32{1, 2}}}, opts,
		func(records.RIDPair) { t.Fatal("emit on single") })
	// Empty-rank item joins nothing.
	SelfJoin([]Item{{RID: 1}, {RID: 2}}, opts,
		func(records.RIDPair) { t.Fatal("emit on empty ranks") })
}

func TestIdenticalItems(t *testing.T) {
	items := []Item{
		{RID: 1, Ranks: []uint32{3, 7, 9}},
		{RID: 2, Ranks: []uint32{3, 7, 9}},
	}
	var got []records.RIDPair
	SelfJoin(items, Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters},
		func(p records.RIDPair) { got = append(got, p) })
	if len(got) != 1 || got[0].Sim != 1.0 {
		t.Fatalf("got %v", got)
	}
}

func TestSelfJoinDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	items := corpus(rng, 60, 40, 10)
	run := func() []records.RIDPair {
		var out []records.RIDPair
		SelfJoin(items, Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters},
			func(p records.RIDPair) { out = append(out, p) })
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical SelfJoin runs emitted different sequences")
	}
}

func TestRSJoinEmptySides(t *testing.T) {
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters}
	items := []Item{{RID: 1, Ranks: []uint32{1, 2, 3}}}
	RSJoin(nil, items, opts, func(records.RIDPair) { t.Fatal("emit with empty R") })
	RSJoin(items, nil, opts, func(records.RIDPair) { t.Fatal("emit with empty S") })
}

func BenchmarkSelfJoinPPJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	items := corpus(rng, 500, 400, 15)
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelfJoin(items, opts, func(records.RIDPair) {})
	}
}

func BenchmarkSelfJoinNestedLoop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	items := corpus(rng, 500, 400, 15)
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NestedLoopSelf(items, opts, nil, func(records.RIDPair) {})
	}
}
