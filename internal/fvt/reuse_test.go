package fvt

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
)

// randomItems generates n items in clusters of near-duplicates over a
// 400-rank universe, so τ-pairs exist. A hot relation instead gives every
// item one of 16 hot first tokens and a tail from a huge universe: a few
// root children with hundreds of descendants, thousands of leaves.
func randomItems(rng *rand.Rand, n int, hot bool) []ppjoin.Item {
	randomRanks := func(universe, maxLen int) []uint32 {
		set := map[uint32]bool{}
		for k := 1 + rng.Intn(maxLen); len(set) < k; {
			set[uint32(rng.Intn(universe))] = true
		}
		ranks := make([]uint32, 0, len(set))
		for r := range set {
			ranks = append(ranks, r)
		}
		slices.Sort(ranks)
		return ranks
	}
	items := make([]ppjoin.Item, n)
	var base []uint32
	for i := range items {
		var ranks []uint32
		switch {
		case hot:
			ranks = []uint32{uint32(rng.Intn(16))}
			for _, r := range randomRanks(1<<20, 24) {
				ranks = append(ranks, r+16)
			}
		case i%4 == 0:
			base = randomRanks(400, 14)
			ranks = base
		default:
			// A near-duplicate of the cluster's base: one token dropped.
			ranks = slices.Clone(base)
			if len(ranks) > 1 {
				k := rng.Intn(len(ranks))
				ranks = slices.Delete(ranks, k, k+1)
			}
		}
		items[i] = ppjoin.Item{RID: uint64(i + 1), Ranks: ranks}
	}
	return items
}

// treeTrace is everything a caller can observe of one relation's join:
// the pairs in emission order, Bytes() after every Add, and the Stats.
type treeTrace struct {
	pairs []records.RIDPair
	bytes []int64
	stats Stats
}

// joinModes are the three ways the Stage 2 reducer drives a tree.
var joinModes = []string{"bulk", "incremental", "rs"}

func driveTree(t *Tree, mode string, items []ppjoin.Item) treeTrace {
	var tr treeTrace
	emit := func(p records.RIDPair) { tr.pairs = append(tr.pairs, p) }
	add := func(it ppjoin.Item) {
		t.Add(it)
		tr.bytes = append(tr.bytes, t.Bytes())
	}
	switch mode {
	case "bulk":
		sorted := slices.Clone(items)
		SortItems(sorted)
		for _, it := range sorted {
			add(it)
		}
		for _, it := range sorted {
			t.SelfProbe(it, emit)
		}
	case "incremental":
		for _, it := range items {
			t.Probe(it, emit)
			add(it)
		}
	case "rs":
		// R is the side the tree is built over; a tenth of the items probe.
		cut := len(items) * 9 / 10
		r, s := items[:cut], items[cut:]
		for _, it := range r {
			add(it)
		}
		for _, it := range s {
			t.Probe(it, emit)
		}
	}
	tr.stats = t.Stats()
	return tr
}

// TestResetEqualsNew drives one reused Tree and a New tree per relation
// through the same random relations — bulk, incremental and R-S joins,
// with and without an owner rule (a different one per relation), sizes
// 0–300 with one 5,000-item hot relation in the middle that outgrows the
// retention caps, full filter stack and prefix-only.
// The reused tree must be indistinguishable: same pairs in the same
// order, same Stats, same Bytes() after every Add.
func TestResetEqualsNew(t *testing.T) {
	relations := 240
	if testing.Short() {
		relations = 40
	}
	for mask := 0; mask < 2; mask++ {
		opts := Options{Fn: simfn.Jaccard, Threshold: 0.8}
		if mask&1 != 0 {
			opts.Filters = filter.AllFilters
		}
		rng := rand.New(rand.NewSource(int64(200 + mask)))
		reused := New(opts)
		pairs := 0
		for g := 0; g < relations; g++ {
			n := rng.Intn(24)
			if g%8 == 0 {
				n = rng.Intn(301)
			}
			hot := g == relations/2
			if hot {
				n = 5000
			}
			items := randomItems(rng, n, hot)
			var owner func(uint32) bool
			if g%3 != 0 {
				k := uint32(g % 3)
				owner = func(w uint32) bool { return w%3 != k }
			}
			mode := joinModes[g%len(joinModes)]
			if hot {
				mode = "rs" // 4,500 indexed items; 500 probes keep the walk cheap
			}
			fresh := New(opts)
			fresh.Reset(owner)
			want := driveTree(fresh, mode, items)
			reused.Reset(owner)
			got := driveTree(reused, mode, items)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("opts %+v relation %d (%s, %d items): reused tree diverged from a new one\n got: %d pairs, stats %+v\nwant: %d pairs, stats %+v",
					opts, g, mode, len(items), len(got.pairs), got.stats, len(want.pairs), want.stats)
			}
			pairs += len(got.pairs)
		}
		if pairs == 0 {
			t.Fatalf("opts %+v: test premise broken, no pairs in any relation", opts)
		}
	}
}

// TestResetRetention: the node slab a hot relation grew past the caps is
// released at the next Reset, an ordinary relation's is kept — with the
// recycled nodes' children and items capacity — and a warmed tree then
// joins a relation without allocating.
func TestResetRetention(t *testing.T) {
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters}
	rng := rand.New(rand.NewSource(6))
	tr := New(opts)
	driveTree(tr, "rs", randomItems(rng, 5000, true))
	if cap(tr.nodes) <= maxRetainedNodes || cap(tr.items) <= maxRetainedItems {
		t.Fatalf("test premise broken: hot relation left %d nodes, %d items", cap(tr.nodes), cap(tr.items))
	}
	tr.Reset(nil)
	if cap(tr.nodes) != 1 || tr.items != nil || tr.refCap != 0 {
		t.Fatalf("hot relation's storage outlived Reset: cap(nodes) %d cap(items) %d refCap %d",
			cap(tr.nodes), cap(tr.items), tr.refCap)
	}

	small := randomItems(rng, 40, false)
	SortItems(small)
	driveTree(tr, "bulk", small)
	tr.Reset(nil)
	if cap(tr.nodes) < 2 || cap(tr.items) == 0 || tr.refCap == 0 {
		t.Fatal("an ordinary relation's storage was not kept across Reset")
	}
	for i, it := range tr.items[:cap(tr.items)] {
		if it.Ranks != nil {
			t.Fatalf("retained item slot %d still pins a rank slice", i)
		}
	}
	got := 0
	emit := func(records.RIDPair) { got++ }
	if n := testing.AllocsPerRun(50, func() {
		tr.Reset(nil)
		for _, it := range small {
			tr.Add(it)
		}
		for _, it := range small {
			tr.SelfProbe(it, emit)
		}
	}); n != 0 {
		t.Errorf("%v allocations per relation on a warmed tree, want 0", n)
	}
	if got == 0 {
		t.Fatal("test premise broken: the relation has no pairs")
	}
}

// relationSizes is the reduce-group size distribution of the benchmark's
// self_dblp recipe (see internal/ppjoin's groupSizes): bucket upper bound
// and the number of groups in it.
var relationSizes = [][2]int{
	{1, 341}, {2, 405}, {3, 524}, {4, 583}, {6, 1097}, {8, 893}, {12, 1144}, {16, 704},
	{24, 776}, {32, 431}, {48, 470}, {64, 365}, {96, 605}, {128, 380}, {192, 525}, {256, 273},
}

// BenchmarkTreeManySmallGroups bulk-joins 10⁵ projections in
// self_dblp-sized groups. "reused" is what a reduce task does (one Tree,
// Reset per group); "fresh" builds a tree per group and exists only here,
// as the yardstick for what the reuse saves.
func BenchmarkTreeManySmallGroups(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var groups [][]ppjoin.Item
	for n := 0; n < 100000; {
		pick, lo, size := rng.Intn(9516), 1, 0
		for _, bk := range relationSizes {
			if pick < bk[1] {
				size = lo + rng.Intn(bk[0]-lo+1)
				break
			}
			pick -= bk[1]
			lo = bk[0] + 1
		}
		// Every item of a group carries the group's token in its prefix.
		token := uint32(len(groups))
		items := randomItems(rng, size, false)
		for i := range items {
			ranks := []uint32{token}
			for _, r := range items[i].Ranks {
				ranks = append(ranks, r+token+1)
			}
			items[i].Ranks = ranks
		}
		SortItems(items)
		groups = append(groups, items)
		n += size
	}
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters}
	emit := func(records.RIDPair) {}
	run := func(b *testing.B, next func() *Tree) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, items := range groups {
				t := next()
				for _, it := range items {
					t.Add(it)
				}
				for _, it := range items {
					t.SelfProbe(it, emit)
				}
			}
		}
	}
	b.Run("fresh", func(b *testing.B) {
		run(b, func() *Tree { return New(opts) })
	})
	b.Run("reused", func(b *testing.B) {
		t := New(opts)
		run(b, func() *Tree { t.Reset(nil); return t })
	})
}
