package ppjoin

import (
	"math/rand"
	"reflect"
	"testing"

	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
)

// TestProbeDoesNotInsert pins the probe side of the posting index as
// read-only in its key set: probing with tokens the index has never seen
// must not create lists for them (an R-S group probes with every S
// projection, and none of that growth was in Bytes() or charged to the
// task's memory budget), and after an evicting probe the index holds
// exactly the live items' lists.
func TestProbeDoesNotInsert(t *testing.T) {
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters}
	ix := NewIndex(opts)
	ix.Add(Item{RID: 1, Ranks: []uint32{0, 1, 2, 3, 4}})
	lists0, entries0 := ix.postingEntries()
	if lists0 != 2 || entries0 != 2 {
		t.Fatalf("one five-token item at τ=0.8 indexed as %d lists / %d entries, want 2 / 2", lists0, entries0)
	}
	noPair := func(p records.RIDPair) { t.Fatalf("disjoint probe emitted %+v", p) }
	for i := 0; i < 1000; i++ {
		b := uint32(100 + 5*i)
		ix.Probe(Item{RID: uint64(10 + i), Ranks: []uint32{b, b + 1, b + 2, b + 3, b + 4}}, noPair)
	}
	if lists, entries := ix.postingEntries(); lists != lists0 || entries != entries0 {
		t.Fatalf("1000 probes of unseen tokens left %d lists / %d entries, want %d / %d",
			lists, entries, lists0, entries0)
	}

	// A probe long enough to evict the item leaves nothing behind — not
	// the item's lists, not the probe's own tokens.
	long := make([]uint32, 40)
	for j := range long {
		long[j] = uint32(50000 + j)
	}
	ix.Probe(Item{RID: 5000, Ranks: long}, noPair)
	if lists, entries := ix.postingEntries(); lists != 0 || entries != 0 {
		t.Fatalf("after evicting every item the index holds %d lists / %d entries, want 0 / 0", lists, entries)
	}
	if ix.Bytes() != 0 {
		t.Fatalf("Bytes() = %d after evicting every item", ix.Bytes())
	}
}

// call is one step of a reduce group's stream through an Index.
type call struct {
	it         Item
	probe, add bool
}

// groupTrace is everything a caller can observe of one group: the pairs
// in emission order, the Bytes() value after every call, the final
// Stats and the posting index's list and entry counts.
type groupTrace struct {
	pairs          []records.RIDPair
	bytes          []int64
	stats          Stats
	lists, entries int
}

func drive(ix *Index, calls []call) groupTrace {
	var tr groupTrace
	emit := func(p records.RIDPair) { tr.pairs = append(tr.pairs, p) }
	for _, c := range calls {
		switch {
		case c.probe && c.add:
			ix.ProbeAndAdd(c.it, emit)
		case c.add:
			ix.Add(c.it)
		default:
			ix.Probe(c.it, emit)
		}
		tr.bytes = append(tr.bytes, ix.Bytes())
	}
	tr.stats = ix.Stats()
	tr.lists, tr.entries = ix.postingEntries()
	return tr
}

// randomGroup builds one group's stream: n clustered items in length
// order, either a self-join stream (every item probes and is added) or an
// R-S stream (each item is an R add or an S probe). A hot group draws
// every item's first token from 16 hot ranks, so a few posting lists
// hold hundreds of entries each while thousands of others hold one.
func randomGroup(rng *rand.Rand, n int, rs, hot bool) []call {
	items := corpus(rng, n, 400, 14)
	if hot {
		for i := range items {
			ranks := randomRanks(rng, 1<<20, 24)
			for j := range ranks {
				ranks[j] += 16
			}
			items[i].Ranks = append([]uint32{uint32(rng.Intn(16))}, ranks...)
		}
	}
	sortByLen(items)
	calls := make([]call, len(items))
	for i, it := range items {
		calls[i] = call{it: it, probe: true, add: true}
		if rs {
			isR := rng.Intn(2) == 0
			calls[i].probe, calls[i].add = !isR, isR
		}
	}
	return calls
}

// TestResetEqualsFresh drives one reused Index and a fresh NewIndex per
// group through the same 500 random groups — self and R-S streams, sizes
// 0–300 with one 5,000-item hot-token group in the middle that outgrows
// every retention cap — under every filter subset, with and without an
// owner rule. The reused index must be
// indistinguishable: the same pairs in the same order, the same Stats,
// the same Bytes() after every call (so a reducer charges its memory
// budget identically and runs out of it at the same item).
func TestResetEqualsFresh(t *testing.T) {
	groups := 500
	if testing.Short() {
		groups = 60
	}
	for mask := 0; mask < 8; mask++ {
		opts := Options{Fn: simfn.Jaccard, Threshold: 0.8,
			Filters: filter.Stack{Length: mask&1 != 0, Positional: mask&2 != 0, Suffix: mask&4 != 0}}
		rng := rand.New(rand.NewSource(int64(100 + mask)))
		reused := NewIndex(opts)
		pairs := 0
		for g := 0; g < groups; g++ {
			n := rng.Intn(24)
			if g%8 == 0 {
				n = rng.Intn(301)
			}
			hot := g == groups/2
			if hot {
				n = 5000
			}
			calls := randomGroup(rng, n, g%2 == 1, hot)
			// Two groups in three run under an owner rule, a different
			// one each: the hook is per stream and must not leak.
			var owner func(uint32) bool
			if g%3 != 0 {
				m, r := uint32(2+g%3), uint32(g%2)
				owner = func(w uint32) bool { return w%m == r }
			}
			fresh := NewIndex(opts)
			fresh.Reset(owner)
			want := drive(fresh, calls)
			reused.Reset(owner)
			got := drive(reused, calls)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("opts %+v group %d (%d calls): reused index diverged from a fresh one\n got: %d pairs, stats %+v, %d lists / %d entries\nwant: %d pairs, stats %+v, %d lists / %d entries",
					opts, g, len(calls), len(got.pairs), got.stats, got.lists, got.entries,
					len(want.pairs), want.stats, want.lists, want.entries)
			}
			pairs += len(got.pairs)
		}
		if pairs == 0 {
			t.Fatalf("opts %+v: test premise broken, no pairs in any group", opts)
		}
	}
}

// TestResetRetention: storage a hot group grew past the retention caps
// is released at the next Reset, what an ordinary group used is kept, and
// a warmed index then runs a group without allocating.
func TestResetRetention(t *testing.T) {
	// No length filter for the hot group: nothing is evicted, so every
	// list it ever needed is in use at once.
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.Stack{Positional: true, Suffix: true}}
	rng := rand.New(rand.NewSource(5))
	ix := NewIndex(opts)
	drive(ix, randomGroup(rng, 5000, false, true))
	if len(ix.items) <= maxRetainedItems || ix.used <= maxRetainedLists {
		t.Fatalf("test premise broken: hot group left %d items, %d lists", len(ix.items), ix.used)
	}
	if len(ix.chunks) <= maxSpareChunks {
		t.Fatalf("test premise broken: hot group filled %d rank chunks", len(ix.chunks))
	}
	ix.Reset(nil)
	if ix.items != nil || ix.slots != nil || ix.slab != nil || ix.free != nil || ix.slabCap != 0 || len(ix.lists) != 0 {
		t.Fatalf("hot group's storage outlived Reset: cap(items) %d cap(slots) %d len(slab) %d cap(free) %d slabCap %d",
			cap(ix.items), cap(ix.slots), len(ix.slab), cap(ix.free), ix.slabCap)
	}
	if ix.chunks != nil || len(ix.spare) > maxSpareChunks {
		t.Fatalf("hot group's rank chunks outlived Reset: %d live, %d spare (cap %d)",
			len(ix.chunks), len(ix.spare), maxSpareChunks)
	}

	small := randomGroup(rng, 40, false, false)
	drive(ix, small)
	ix.Reset(nil)
	if cap(ix.items) == 0 || cap(ix.slots) == 0 || len(ix.slab) == 0 || ix.slabCap == 0 {
		t.Fatal("an ordinary group's storage was not kept across Reset")
	}
	for i := range ix.items[:cap(ix.items)] {
		if ix.items[:cap(ix.items)][i].Ranks != nil {
			t.Fatalf("retained item slot %d still pins a rank slice", i)
		}
	}
	got := 0
	emit := func(records.RIDPair) { got++ }
	if n := testing.AllocsPerRun(50, func() {
		ix.Reset(nil)
		for _, c := range small {
			ix.ProbeAndAdd(c.it, emit)
		}
	}); n != 0 {
		t.Errorf("%v allocations per group on a warmed index, want 0", n)
	}
	if got == 0 {
		t.Fatal("test premise broken: the group has no pairs")
	}
}

// groupSizes is the reduce-group size distribution of the benchmark's
// self_dblp recipe (10⁵ datagen records, BTO-PK, τ 0.8, one group per
// prefix token: 9,516 groups, 339,186 projections): bucket upper bound
// and the number of groups in it.
var groupSizes = [][2]int{
	{1, 341}, {2, 405}, {3, 524}, {4, 583}, {6, 1097}, {8, 893}, {12, 1144}, {16, 704},
	{24, 776}, {32, 431}, {48, 470}, {64, 365}, {96, 605}, {128, 380}, {192, 525}, {256, 273},
}

// manySmallGroups builds about total projections in groups whose sizes
// follow groupSizes. Every item of a group carries the group's token in
// its prefix, as the items of a Stage 2 reduce group do.
func manySmallGroups(total int) [][]Item {
	rng := rand.New(rand.NewSource(3))
	var groups [][]Item
	rid := uint64(0)
	for n := 0; n < total; {
		pick, lo := rng.Intn(9516), 1
		size := 0
		for _, b := range groupSizes {
			if pick < b[1] {
				size = lo + rng.Intn(b[0]-lo+1)
				break
			}
			pick -= b[1]
			lo = b[0] + 1
		}
		token := uint32(len(groups))
		items := make([]Item, size)
		for i := range items {
			ranks := randomRanks(rng, 50000, 20)
			for j := range ranks {
				ranks[j] += token + 1
			}
			rid++
			items[i] = Item{RID: rid, Ranks: append([]uint32{token}, ranks...)}
		}
		sortByLen(items)
		groups = append(groups, items)
		n += size
	}
	return groups
}

// BenchmarkIndexManySmallGroups streams 10⁵ projections through the
// index in self_dblp-sized groups. "reused" is what a reduce task does
// (one Index, Reset per group); "fresh" builds an index per group and
// exists only here, as the yardstick for what the reuse saves.
func BenchmarkIndexManySmallGroups(b *testing.B) {
	groups := manySmallGroups(100000)
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters}
	emit := func(records.RIDPair) {}
	run := func(b *testing.B, next func() *Index) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, items := range groups {
				ix := next()
				for _, it := range items {
					ix.ProbeAndAdd(it, emit)
				}
			}
		}
	}
	b.Run("fresh", func(b *testing.B) {
		run(b, func() *Index { return NewIndex(opts) })
	})
	b.Run("reused", func(b *testing.B) {
		ix := NewIndex(opts)
		run(b, func() *Index { ix.Reset(nil); return ix })
	})
}
