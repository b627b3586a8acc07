package ppjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
)

// posting is one (item, token) posting Add made: the shadow a test keeps
// of what an index was given.
type posting struct {
	rid  uint64
	l, j int
	tok  uint32
	ix   *Index
}

// checkIndex fails t unless ix's lists are well formed: every list in the
// token map is non-empty, in non-decreasing length and holds only entries
// whose token at pos is the list's; every free list is empty, out of the
// map and on the free list once.
func checkIndex(t *testing.T, label string, ix *Index) {
	t.Helper()
	inMap := map[int32]bool{}
	for w, id := range ix.lists {
		inMap[id] = true
		pl := &ix.slab[id]
		live := pl.entries[pl.head:]
		if pl.tok != w || len(live) == 0 {
			t.Fatalf("%s: list %d of token %d is under token %d with %d live entries", label, id, w, pl.tok, len(live))
		}
		for k := range live {
			if e := &live[k]; e.Ranks[e.pos] != w || k > 0 && len(e.Ranks) < len(live[k-1].Ranks) {
				t.Fatalf("%s: list of token %d: entry %d (RID %d, pos %d) misplaced", label, w, k, e.RID, e.pos)
			}
		}
	}
	freed := map[int32]bool{}
	for _, id := range ix.free {
		if freed[id] || inMap[id] || len(ix.slab[id].entries) != 0 {
			t.Fatalf("%s: free list %d freed twice, still mapped or not empty", label, id)
		}
		freed[id] = true
	}
}

// checkLive fails t unless every posting a probe of the index's current
// length could still need is in its list: the item is inside the length
// window and the posting passes y's side of the positional bound. Bytes
// must be what the index charged before pruning: every item inside the
// window, with all its postings. It returns how many postings of items
// inside the window were pruned.
func checkLive(t *testing.T, label string, ix *Index, posts []posting) (pruned int) {
	t.Helper()
	fs := ix.opts.Filters
	var bytes int64
	items := map[uint64]bool{}
	for _, p := range posts {
		if p.l < ix.lo {
			continue
		}
		if bytes += 16; !items[p.rid] {
			items[p.rid], bytes = true, bytes+int64(16+4*p.l)
		}
		found := false
		if id, ok := ix.lists[p.tok]; ok {
			pl := &ix.slab[id]
			for _, e := range pl.entries[pl.head:] {
				found = found || e.RID == p.rid
			}
		}
		switch dead := fs.Positional && p.l-p.j < ix.th.OverlapThreshold(ix.at, p.l); {
		case !found && !dead:
			t.Fatalf("%s: live posting of RID %d under token %d (length %d, pos %d) lost at length %d",
				label, p.rid, p.tok, p.l, p.j, ix.at)
		case !found:
			pruned++
		}
	}
	if ix.Bytes() != bytes {
		t.Fatalf("%s: Bytes() = %d at length %d, want %d", label, ix.Bytes(), ix.at, bytes)
	}
	return pruned
}

// TestPruningKeepsLiveEntries drives random self-join and R-S streams,
// partitioned under three routings as Stage 2 partitions them, at four
// thresholds, and checks after every item that pruning and the length
// eviction that follows it dropped only dead postings, that the lists stay
// well formed, and that the groups' pairs together are the brute-force
// result, each once.
func TestPruningKeepsLiveEntries(t *testing.T) {
	routings := map[string]func(uint32) uint32{
		"none":       nil,
		"grouped/3":  func(w uint32) uint32 { return w % 3 },
		"individual": func(w uint32) uint32 { return w },
	}
	stacks := []filter.Stack{filter.AllFilters, {Positional: true, Suffix: true}}
	var pruned, results int
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rItems := corpus(rng, 160, 60, 24)
		sItems := make([]Item, len(rItems))
		for i, it := range rItems {
			sItems[i] = Item{RID: uint64(5000 + i), Ranks: mutate(rng, 60, it.Ranks)}
		}
		sortByLen(rItems)
		sortByLen(sItems)
		for _, tau := range []float64{0.5, 0.7, 0.8, 0.95} {
			oracle := Options{Fn: simfn.Jaccard, Threshold: tau}
			th := oracle.Fn.At(tau)
			for name, group := range routings {
				for _, fs := range stacks {
					opts := oracle
					opts.Filters = fs
					for _, rs := range []bool{false, true} {
						label := fmt.Sprintf("seed %d τ=%g %s %+v rs=%v", seed, tau, name, fs, rs)
						groups := map[uint32]bool{0: true}
						if group != nil {
							groups = map[uint32]bool{}
							for _, it := range append(append([]Item(nil), rItems...), sItems...) {
								for _, w := range it.Ranks[:th.PrefixLength(len(it.Ranks))] {
									groups[group(w)] = true
								}
							}
						}
						var got []records.RIDPair
						emit := func(p records.RIDPair) { got = append(got, p) }
						rels := 1
						if rs {
							rels = 2
						}
						s := NewStream(opts, rels)
						for g := range groups {
							var owner func(uint32) bool
							if group != nil {
								owner = func(w uint32) bool { return group(w) == g }
							}
							s.Reset(owner)
							var posts []posting
							next := func(rel int, x Item) {
								s.Next(rel, x, emit)
								ix := s.ix[rel]
								for j, w := range x.Ranks[:indexPrefix(th, len(x.Ranks))] {
									if owner == nil || owner(w) {
										posts = append(posts, posting{rid: x.RID, l: len(x.Ranks), j: j, tok: w, ix: ix})
									}
								}
								for _, ix := range s.ix {
									checkIndex(t, label, ix)
									var mine []posting
									for _, p := range posts {
										if p.ix == ix {
											mine = append(mine, p)
										}
									}
									pruned += checkLive(t, label, ix, mine)
								}
							}
							if rs {
								mergeByLen(rItems, sItems, next)
							} else {
								for _, x := range rItems {
									next(0, x)
								}
							}
						}
						want := BruteForceSelf(rItems, oracle)
						if rs {
							want = BruteForceRS(rItems, sItems, oracle)
						}
						results += len(want)
						if len(got) != len(want) {
							t.Fatalf("%s: %d pairs, brute force finds %d", label, len(got), len(want))
						}
						assertSamePairs(t, got, want, label)
					}
				}
			}
		}
	}
	if pruned == 0 || results == 0 {
		t.Fatalf("test premise broken: %d postings pruned inside the length window, %d results", pruned, results)
	}
}

// TestEvictionAfterPruneSparesReusedList pins the case the eviction queue
// must survive: a walk prunes an item's only entry of a list, frees the
// list, and the next item is posted in it under another token; evicting
// the first item must leave the second's entry alone.
func TestEvictionAfterPruneSparesReusedList(t *testing.T) {
	seq := func(from uint32, n int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = from + uint32(i)
		}
		return out
	}
	// At τ 0.8 a 10-token item is indexed under its first two tokens, an
	// 11-token one under its first two, and an 11-token probe's prefix is
	// three tokens long.
	y := Item{RID: 1, Ranks: append([]uint32{1, 3}, seq(100, 8)...)}
	x := Item{RID: 2, Ranks: append([]uint32{2, 3}, seq(200, 9)...)}
	w := Item{RID: 3, Ranks: seq(300, 13)}                                        // evicts y, not x
	z := Item{RID: 4, Ranks: append(append([]uint32(nil), x.Ranks...), 400, 401)} // x's partner
	s := NewStream(Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters}, 1)
	ix := s.ix[0]
	var got []records.RIDPair
	emit := func(p records.RIDPair) { got = append(got, p) }
	s.Next(0, y, emit)
	reused := ix.lists[3]
	s.Next(0, x, emit) // x's walk of token 3 prunes y (10 − 1 < need(11, 10) = 10)
	if id, ok := ix.lists[2]; !ok || id != reused {
		t.Fatalf("test premise broken: the list y left was not handed to x's token 2 (lists %v, freed %d)", ix.lists, reused)
	}
	checkIndex(t, "after the prune", ix)
	s.Next(0, w, emit)
	checkIndex(t, "after the eviction", ix)
	if ix.gone != 1 {
		t.Fatalf("test premise broken: %d items evicted, want y alone", ix.gone)
	}
	s.Next(0, z, emit)
	if len(got) != 1 || got[0].A != x.RID || got[0].B != z.RID {
		t.Fatalf("pairs %+v, want (2, 4) alone", got)
	}
}
