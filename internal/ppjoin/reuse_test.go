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
// must not create lists for them (none of that growth would be in
// Bytes() or charged to the task's memory budget), and after an evicting
// probe the index holds exactly the live items' lists. Under an owner
// rule, Add posts under the accepted tokens of the index prefix only (an
// item with none is not indexed at all), and a probe walks no list of a
// token the rule rejects.
func TestProbeDoesNotInsert(t *testing.T) {
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters}
	ix := NewIndex(opts)
	// At τ 0.8 a five-token item's index prefix is its first token.
	ix.Add(Item{RID: 1, Ranks: []uint32{0, 1, 2, 3, 4}})
	lists0, entries0 := ix.postingEntries()
	if lists0 != 1 || entries0 != 1 {
		t.Fatalf("one five-token item at τ=0.8 indexed as %d lists / %d entries, want 1 / 1", lists0, entries0)
	}
	noPair := func(p records.RIDPair) { t.Fatalf("disjoint probe emitted %+v", p) }
	for i := 0; i < 1000; i++ {
		b := uint32(100 + 5*i)
		ix.probe(&Item{RID: uint64(10 + i), Ranks: []uint32{b, b + 1, b + 2, b + 3, b + 4}}, indexedFirst, noPair)
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
	ix.probe(&Item{RID: 5000, Ranks: long}, indexedFirst, noPair)
	if lists, entries := ix.postingEntries(); lists != 0 || entries != 0 {
		t.Fatalf("after evicting every item the index holds %d lists / %d entries, want 0 / 0", lists, entries)
	}
	if ix.Bytes() != 0 {
		t.Fatalf("Bytes() = %d after evicting every item", ix.Bytes())
	}

	// The owned-token rule: even tokens only. At τ 0.5 a four-token
	// item's index prefix is its first two tokens, its probe prefix
	// three.
	opts.Threshold = 0.5
	ix = NewIndex(opts)
	ix.Reset(func(w uint32) bool { return w%2 == 0 })
	ix.Add(Item{RID: 1, Ranks: []uint32{1, 3, 4, 6}}) // no even token in {1, 3}
	if lists, entries := ix.postingEntries(); lists != 0 || entries != 0 || ix.Bytes() != 0 {
		t.Fatalf("an item with no owned index-prefix token indexed as %d lists / %d entries, %d bytes",
			lists, entries, ix.Bytes())
	}
	ix.Add(Item{RID: 2, Ranks: []uint32{1, 2, 4, 6}}) // 2 only: 4 is past the index prefix
	if lists, entries := ix.postingEntries(); lists != 1 || entries != 1 {
		t.Fatalf("an item with one owned index-prefix token indexed as %d lists / %d entries, want 1 / 1", lists, entries)
	}
	// A probe whose least common token with RID 2 is 2 meets it in 2's
	// list and reports the pair; an odd-only probe walks nothing.
	var got []records.RIDPair
	ix.probe(&Item{RID: 3, Ranks: []uint32{2, 4, 6, 8}}, indexedFirst, func(p records.RIDPair) { got = append(got, p) })
	ix.probe(&Item{RID: 4, Ranks: []uint32{1, 3, 5, 7}}, indexedFirst, noPair)
	if st := ix.Stats(); len(got) != 1 || got[0].A != 2 || got[0].B != 3 || st.Candidates != 1 {
		t.Fatalf("owned probes: pairs %+v, stats %+v, want (2, 3) from one candidate", got, st)
	}
}

// postingEntries reports the index's list count and the entries its
// lists retain, evicted ones not yet trimmed included.
func (ix *Index) postingEntries() (lists, entries int) {
	for _, id := range ix.lists {
		lists++
		entries += len(ix.slab[id].entries)
	}
	return lists, entries
}

// step is one item of a reduce group's stream, of relation rel.
type step struct {
	rel int
	it  Item
}

// groupTrace is everything a caller can observe of one group: the pairs
// in emission order, the Bytes() value after every item, the final
// Stats and each index's list and retained-entry counts.
type groupTrace struct {
	pairs          []records.RIDPair
	bytes          []int64
	stats          Stats
	lists, entries []int
}

func drive(s *Stream, steps []step) groupTrace {
	var tr groupTrace
	emit := func(p records.RIDPair) { tr.pairs = append(tr.pairs, p) }
	for _, st := range steps {
		s.Next(st.rel, st.it, emit)
		tr.bytes = append(tr.bytes, s.Bytes())
	}
	tr.stats = s.Stats()
	for _, ix := range s.ix {
		l, e := ix.postingEntries()
		tr.lists, tr.entries = append(tr.lists, l), append(tr.entries, e)
	}
	return tr
}

// tokenGroup builds the items of one individually routed group of token
// 0: n clustered items, each holding rank 0 first, so 0 is in every
// item's prefix and index prefix.
func tokenGroup(rng *rand.Rand, n int) []Item {
	items := corpus(rng, n, 400, 14)
	for i := range items {
		ranks := make([]uint32, 0, len(items[i].Ranks)+1)
		ranks = append(ranks, 0)
		for _, w := range items[i].Ranks {
			ranks = append(ranks, w+1)
		}
		items[i].Ranks = ranks
	}
	return items
}

// randomGroup builds one group's stream: n clustered items in length
// order, a self-join stream (rs false) or an R-S stream (each item R or
// S at random). A token group is tokenGroup's; a hot group draws every
// item's first token from 16 hot ranks, so a few posting lists hold
// hundreds of entries each while thousands of others hold one.
func randomGroup(rng *rand.Rand, n int, rs, token, hot bool) []step {
	items := corpus(rng, n, 400, 14)
	switch {
	case token:
		items = tokenGroup(rng, n)
	case hot:
		for i := range items {
			ranks := randomRanks(rng, 1<<20, 24)
			for j := range ranks {
				ranks[j] += 16
			}
			items[i].Ranks = append([]uint32{uint32(rng.Intn(16))}, ranks...)
		}
	}
	sortByLen(items)
	steps := make([]step, len(items))
	for i, it := range items {
		steps[i] = step{it: it}
		if rs {
			steps[i].rel = rng.Intn(2)
		}
	}
	return steps
}

// TestResetEqualsFresh drives one reused Stream and a fresh NewStream per
// group through the same random groups — self and R-S streams, sizes
// 0–300 with one 5,000-item hot-token group in the middle that outgrows
// every retention cap — under every filter subset and three owner rules:
// none, a grouped one (tokens ≡ r mod m, a different one each group) and
// an individual one (one token, which every item of the group holds, or,
// one group in four, a token only some hold). The reused stream must be
// indistinguishable: the same pairs in the same order, the same Stats,
// the same Bytes() after every item (so a reducer charges its memory
// budget identically and runs out of it at the same item) and the same
// posting lists.
func TestResetEqualsFresh(t *testing.T) {
	groups := 500
	if testing.Short() {
		groups = 60
	}
	for mask := 0; mask < 8; mask++ {
		opts := Options{Fn: simfn.Jaccard, Threshold: 0.8,
			Filters: filter.Stack{Length: mask&1 != 0, Positional: mask&2 != 0, Suffix: mask&4 != 0}}
		rng := rand.New(rand.NewSource(int64(100 + mask)))
		reused := []*Stream{NewStream(opts, 1), NewStream(opts, 2)}
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
			rs, individual := g%2 == 1, g%3 == 2 && !hot
			steps := randomGroup(rng, n, rs, individual, hot)
			// The hook is per stream and must not leak.
			var owner func(uint32) bool
			switch {
			case individual:
				tok := uint32(0)
				if g%4 == 0 {
					tok = uint32(1 + rng.Intn(40))
				}
				owner = func(w uint32) bool { return w == tok }
			case g%3 == 1:
				m, r := uint32(2+g%3), uint32(g%2)
				owner = func(w uint32) bool { return w%m == r }
			}
			pairs += checkResetEqualsFresh(t, opts, reused, owner, steps, rs)
		}
		if pairs == 0 {
			t.Fatalf("opts %+v: test premise broken, no pairs in any group", opts)
		}
	}
}

// TestTokenIndexResetEqualsFresh is TestResetEqualsFresh for the index of
// individual routing, which owns one token: every group is a token group,
// of token 0 or, one group in three, of a token only some items hold, and
// with the length filter one 5,000-item group in the middle outgrows the
// retention caps within its one list.
func TestTokenIndexResetEqualsFresh(t *testing.T) {
	for mask := 0; mask < 8; mask++ {
		opts := Options{Fn: simfn.Jaccard, Threshold: 0.8,
			Filters: filter.Stack{Length: mask&1 != 0, Positional: mask&2 != 0, Suffix: mask&4 != 0}}
		rng := rand.New(rand.NewSource(int64(400 + mask)))
		reused := []*Stream{NewStream(opts, 1), NewStream(opts, 2)}
		pairs := 0
		for g := 0; g < 60; g++ {
			n := rng.Intn(24)
			if g%8 == 0 {
				n = rng.Intn(301)
			}
			if g == 30 && opts.Filters.Length {
				n = 5000 // quadratic without the length filter's eviction
			}
			steps := randomGroup(rng, n, g%2 == 1, true, false)
			tok := uint32(0)
			if g%3 == 2 {
				tok = uint32(1 + rng.Intn(40))
			}
			pairs += checkResetEqualsFresh(t, opts, reused, func(w uint32) bool { return w == tok }, steps, g%2 == 1)
		}
		if pairs == 0 {
			t.Fatalf("opts %+v: test premise broken, no pairs in any group", opts)
		}
	}
}

// checkResetEqualsFresh runs one group's steps through the reused stream
// of its relation count, after Reset(owner), and through a fresh one, fails
// t unless the two traces are equal, and returns the group's pair count.
func checkResetEqualsFresh(t *testing.T, opts Options, reused []*Stream, owner func(uint32) bool, steps []step, rs bool) int {
	t.Helper()
	rels := 1
	if rs {
		rels = 2
	}
	fresh := NewStream(opts, rels)
	fresh.Reset(owner)
	want := drive(fresh, steps)
	s := reused[rels-1]
	s.Reset(owner)
	got := drive(s, steps)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("opts %+v (%d items, %d relations): reused stream diverged from a fresh one\n got: %d pairs, stats %+v, %v lists / %v entries\nwant: %d pairs, stats %+v, %v lists / %v entries",
			opts, len(steps), rels, len(got.pairs), got.stats, got.lists, got.entries,
			len(want.pairs), want.stats, want.lists, want.entries)
	}
	return len(got.pairs)
}

// TestResetRetention: storage a hot group of many lists grew past the
// retention caps is released at the next Reset, what an ordinary group
// used is kept without pinning its ranks, and a warmed index then runs a
// group without allocating.
func TestResetRetention(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checkRetention(t, rng, nil, randomGroup(rng, 5000, false, false, true))
}

// TestTokenIndexRetention is TestResetRetention for the index of
// individual routing, whose one list holds every item of a hot group. The
// hot group's items hold token 0 first and are all 12 tokens long, so no
// probe prunes an entry (12 − 0 ≥ need(12, 12)) and the list keeps all
// 5,000.
func TestTokenIndexRetention(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	hot := make([]step, 5000)
	for i := range hot {
		ranks := []uint32{0}
		for w := uint32(1 + rng.Intn(1<<20)); len(ranks) < 12; w++ {
			ranks = append(ranks, w)
		}
		hot[i] = step{it: Item{RID: uint64(i + 1), Ranks: ranks}}
	}
	checkRetention(t, rng, func(w uint32) bool { return w == 0 }, hot)
}

// checkRetention drives a self-join stream under owner through the hot
// group, then through ordinary groups drawn from rng (token groups when
// owner is set), checking what each Reset releases and keeps.
func checkRetention(t *testing.T, rng *rand.Rand, owner func(uint32) bool, hot []step) {
	t.Helper()
	// No length filter for the hot groups: nothing is evicted, so every
	// list and entry they ever needed is in use at once.
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.Stack{Positional: true, Suffix: true}}
	s := NewStream(opts, 1)
	ix := s.ix[0]
	s.Reset(owner)
	drive(s, hot)
	if len(ix.fifo) <= maxRetainedItems || ix.slabCap <= maxRetainedEntries {
		t.Fatalf("test premise broken: hot group indexed %d items, %d entries", len(ix.fifo), ix.slabCap)
	}
	if owner == nil && ix.used <= maxRetainedLists {
		t.Fatalf("test premise broken: hot group used %d lists", ix.used)
	}
	if len(ix.chunks) <= maxSpareChunks {
		t.Fatalf("test premise broken: hot group filled %d rank chunks", len(ix.chunks))
	}
	s.Reset(owner)
	if ix.fifo != nil || ix.posts != nil || ix.slab != nil || ix.free != nil || ix.slabCap != 0 || len(ix.lists) != 0 {
		t.Fatalf("hot group's storage outlived Reset: cap(fifo) %d cap(posts) %d len(slab) %d cap(free) %d slabCap %d",
			cap(ix.fifo), cap(ix.posts), len(ix.slab), cap(ix.free), ix.slabCap)
	}
	if ix.chunks != nil || len(ix.spare) > maxSpareChunks {
		t.Fatalf("hot group's rank chunks outlived Reset: %d live, %d spare (cap %d)",
			len(ix.chunks), len(ix.spare), maxSpareChunks)
	}

	small := randomGroup(rng, 40, false, owner != nil, false)
	drive(s, small)
	s.Reset(owner)
	if cap(ix.fifo) == 0 || cap(ix.posts) == 0 || len(ix.slab) == 0 || ix.slabCap == 0 || ix.Bytes() != 0 {
		t.Fatal("an ordinary group's storage was not kept empty across Reset")
	}
	for i := range ix.slab {
		for j, e := range ix.slab[i].entries[:cap(ix.slab[i].entries)] {
			if e.Ranks != nil {
				t.Fatalf("retained list %d slot %d still pins a rank slice", i, j)
			}
		}
	}
	got := 0
	emit := func(records.RIDPair) { got++ }
	if n := testing.AllocsPerRun(50, func() {
		s.Reset(owner)
		for _, st := range small {
			s.Next(0, st.it, emit)
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
// index in self_dblp-sized groups, each under the owner rule of its token
// as under individual routing. "reused" is what a reduce task does (one
// Stream, Reset per group); "fresh" builds a stream per group and exists
// only here, as the yardstick for what the reuse saves.
func BenchmarkIndexManySmallGroups(b *testing.B) {
	groups := manySmallGroups(100000)
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters}
	emit := func(records.RIDPair) {}
	var cur uint32
	owner := func(w uint32) bool { return w == cur }
	run := func(b *testing.B, next func() *Stream) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for g, items := range groups {
				cur = uint32(g)
				s := next()
				for _, it := range items {
					s.Next(0, it, emit)
				}
			}
		}
	}
	b.Run("fresh", func(b *testing.B) {
		run(b, func() *Stream {
			s := NewStream(opts, 1)
			s.Reset(owner)
			return s
		})
	})
	b.Run("reused", func(b *testing.B) {
		s := NewStream(opts, 1)
		run(b, func() *Stream { s.Reset(owner); return s })
	})
}
