package ppjoin

import (
	"math/rand"
	"testing"

	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
)

// fixedRanks draws n distinct sorted ranks below universe.
func fixedRanks(rng *rand.Rand, universe, n int) []uint32 {
	out := make([]uint32, 0, n)
	for _, v := range rng.Perm(universe)[:n] {
		out = append(out, uint32(v))
	}
	sortRanks(out)
	return out
}

// TestRankChunksFollowEviction streams 10,184 items in length order
// through one self-join Stream with the length filter on, each from one
// scratch slice the caller overwrites after the call, as a PK reducer
// does. At
// τ 0.9 an item of length l ≤ 9 can only pair with items of its own
// length, so the length filter keeps one length live at a time, and
// every length holds at most 3,600 ranks, less than one chunk: rank
// chunks must free as the stream advances, leaving at most two live
// (the oldest live item's and the newest). The pairs must be the
// brute-force join's; with no pair across lengths, that is the union of
// the brute-force joins of the lengths.
func TestRankChunksFollowEviction(t *testing.T) {
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.9, Filters: filter.AllFilters}
	rng := rand.New(rand.NewSource(7))
	s := NewStream(opts, 1)
	ix := s.ix[0]
	var got, want []records.RIDPair
	emit := func(p records.RIDPair) { got = append(got, p) }
	scratch := make([]uint32, 0, 9)
	rid, maxLive := uint64(0), 0
	for l := 1; l <= 9; l++ {
		class := make([]Item, 3600/l)
		for i := range class {
			rid++
			ranks := fixedRanks(rng, 200, l)
			if i > 0 && rng.Intn(4) == 0 {
				ranks = class[rng.Intn(i)].Ranks // a duplicate: a pair at any length
			}
			class[i] = Item{RID: rid, Ranks: ranks}
		}
		want = append(want, BruteForceSelf(class, opts)...)
		for _, it := range class {
			scratch = append(scratch[:0], it.Ranks...)
			s.Next(0, Item{RID: it.RID, Ranks: scratch}, emit)
			for j := range scratch {
				scratch[j] = ^uint32(0) // the index must keep a copy
			}
			maxLive = max(maxLive, len(ix.chunks))
		}
	}
	if rid < 10000 || len(want) == 0 {
		t.Fatalf("test premise broken: %d items, %d pairs", rid, len(want))
	}
	if maxLive > 2 {
		t.Errorf("%d rank chunks live at once, want <= 2", maxLive)
	}
	if len(ix.spare) > maxSpareChunks {
		t.Errorf("%d spare rank chunks, want <= %d", len(ix.spare), maxSpareChunks)
	}
	assertSamePairs(t, got, want, "chunked index vs brute force")
}

// TestLongItemJoinsExactly: items with more ranks than a chunk holds get
// storage of their own, between items that each take most of a chunk and
// short ones that share one, and the join stays exact.
func TestLongItemJoinsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const universe = 1 << 16
	items := corpus(rng, 150, 400, 14)
	for _, n := range []int{chunkRanks - 100, chunkRanks + 300} {
		base := fixedRanks(rng, universe, n)
		for i := 0; i < 4; i++ {
			items = append(items, Item{RID: uint64(1000*n + i), Ranks: mutate(rng, universe, base)})
		}
	}
	for _, fs := range []filter.Stack{filter.AllFilters, {}} {
		opts := Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: fs}
		var got []records.RIDPair
		SelfJoin(items, opts, func(p records.RIDPair) { got = append(got, p) })
		want := BruteForceSelf(items, opts)
		if len(want) < 12 {
			t.Fatalf("test premise broken: %d pairs", len(want))
		}
		assertSamePairs(t, got, want, "long items")
	}
}
