package ppjoin

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
)

// pairCheck is one candidate pair's filter funnel as BK ran it pair by
// pair: px and py are the items' prefix lengths, l the length the other
// item's window [lo, hi] must admit. perPairLoopSelf and
// perPairLoopProbe run it over a block the way Block.Self and
// Block.Probe did before they took the length and bitmap filters out of
// the funnel into per-row tables; the tests below hold the kernel to
// these loops.
type pairCheck func(b *Block, x, y *Item, px, py, l, lo, hi int) (float64, bool)

// perPairCheck is BK's per-pair funnel as it was: length, bitmap (with
// the overlap threshold computed for every pair), prefix, owner,
// positional, suffix, merge.
func perPairCheck(b *Block, x, y *Item, px, py, l, lo, hi int) (float64, bool) {
	lx, ly := len(x.Ranks), len(y.Ranks)
	if lx == 0 || ly == 0 {
		return 0, false
	}
	st, opts := &b.stats, &b.opts
	st.Candidates++
	if l < lo || l > hi {
		return 0, false
	}
	need := b.th.OverlapThreshold(lx, ly)
	if !st.Admit(lx, ly, x.Sig(), y.Sig(), need) {
		return 0, false
	}
	i, j, ok := firstPrefixMatch(x.Ranks, y.Ranks, px, py)
	if !ok || (b.owner != nil && !b.owner(x.Ranks[i])) {
		return 0, false
	}
	if opts.Filters.Positional && !filter.Positional(lx, ly, i, j, 1, need) {
		return 0, false
	}
	if opts.Filters.Suffix && !filter.Suffix(x.Ranks, y.Ranks, i, j, need) {
		return 0, false
	}
	return st.Merge(opts.Fn, x, y, need)
}

// tailLastCheck is perPairCheck with the bitmap filter at the end of the
// funnel, just before the merge: BK's order before the signature test
// moved ahead of the prefix scan.
func tailLastCheck(b *Block, x, y *Item, px, py, l, lo, hi int) (float64, bool) {
	lx, ly := len(x.Ranks), len(y.Ranks)
	if lx == 0 || ly == 0 {
		return 0, false
	}
	st, opts := &b.stats, &b.opts
	st.Candidates++
	if l < lo || l > hi {
		return 0, false
	}
	i, j, ok := firstPrefixMatch(x.Ranks, y.Ranks, px, py)
	if !ok || (b.owner != nil && !b.owner(x.Ranks[i])) {
		return 0, false
	}
	need := b.th.OverlapThreshold(lx, ly)
	if opts.Filters.Positional && !filter.Positional(lx, ly, i, j, 1, need) {
		return 0, false
	}
	if opts.Filters.Suffix && !filter.Suffix(x.Ranks, y.Ranks, i, j, need) {
		return 0, false
	}
	return st.Verify(opts.Fn, x, y, x.Sig(), need)
}

// perPairWindow is the length filter's partner range for a set of l
// tokens; without the length filter it admits every length.
func perPairWindow(b *Block, l int) (lo, hi int) {
	if !b.opts.Filters.Length {
		return 0, math.MaxInt
	}
	return b.th.LengthBounds(l)
}

func perPairLoopSelf(check pairCheck) func(*Block, func(records.RIDPair)) {
	return func(b *Block, emit func(records.RIDPair)) {
		for i := range b.items {
			x := &b.items[i]
			lo, hi := perPairWindow(b, len(x.Ranks))
			for j := i + 1; j < len(b.items); j++ {
				y := &b.items[j]
				if sim, ok := check(b, x, y, int(b.prefix[i]), int(b.prefix[j]), len(y.Ranks), lo, hi); ok {
					p := records.RIDPair{A: x.RID, B: y.RID, Sim: sim}
					if p.A > p.B {
						p.A, p.B = p.B, p.A
					}
					emit(p)
				}
			}
		}
	}
}

func perPairLoopProbe(check pairCheck) func(*Block, Item, func(records.RIDPair)) {
	return func(b *Block, s Item, emit func(records.RIDPair)) {
		ps := b.th.PrefixLength(len(s.Ranks))
		lo, hi := perPairWindow(b, len(s.Ranks))
		for i := range b.items {
			x := &b.items[i]
			if sim, ok := check(b, x, &s, int(b.prefix[i]), ps, len(x.Ranks), lo, hi); ok {
				emit(records.RIDPair{A: x.RID, B: s.RID, Sim: sim})
			}
		}
	}
}

// blockTrace is what a block emitted, in order, and what it counted.
type blockTrace struct {
	pairs []records.RIDPair
	stats Stats
}

// runBlock drives b as a reduce group does: each round buffers its load
// items, cross-pairs them, then probes every stream item; Clear starts the
// next round.
func runBlock(b *Block, owner func(uint32) bool, rounds [][]Item, s []Item, self func(*Block, func(records.RIDPair)), probe func(*Block, Item, func(records.RIDPair))) blockTrace {
	var tr blockTrace
	emit := func(p records.RIDPair) { tr.pairs = append(tr.pairs, p) }
	b.Reset(owner)
	for _, r := range rounds {
		b.Clear()
		for _, it := range r {
			b.Add(it)
		}
		self(b, emit)
		for _, it := range s {
			probe(b, it, emit)
		}
	}
	tr.stats = b.Stats()
	return tr
}

// TestBlockMatchesPerPairLoop: Block.Self and Block.Probe, which test the
// length and bitmap filters against per-row tables, emit the same pairs in
// the same order as BK's per-pair funnel (perPairCheck) and count the same
// Candidates, BitmapRejected, Verified and Results. Over seeded corpora —
// a universe inside the signature width and two past it, where folds
// collide — with empty items scattered through both sides (no pair counts
// them) × Jaccard / cosine / Dice × τ ∈ {0.5, 0.6, 0.8, 0.95} × every
// filter stack (length off: every partner length is in the window) × with
// and without an owner rule, over two rounds whose second holds longer
// items than its first, run on a fresh block and again after its Reset
// (the second run's first round reads the longer round's tables).
func TestBlockMatchesPerPairLoop(t *testing.T) {
	withEmpties := func(rng *rand.Rand, items []Item, rid uint64) []Item {
		for k := 0; k < 3; k++ {
			i := rng.Intn(len(items) + 1)
			items = slices.Insert(items, i, Item{RID: rid + uint64(k)})
		}
		return items
	}
	var pairs, rejected int64
	for seed := int64(1); seed <= 3; seed++ {
		for _, universe := range []int{40, 300, 1024} {
			rng := rand.New(rand.NewSource(seed))
			short, long := corpus(rng, 30, universe, 10), corpus(rng, 40, universe, 30)
			for i := range long {
				long[i].RID += 100
			}
			s := make([]Item, 0, len(long))
			for i, it := range long {
				s = append(s, Item{RID: uint64(1000 + i), Ranks: mutate(rng, universe, it.Ranks)})
			}
			rounds := [][]Item{withEmpties(rng, short, 500), withEmpties(rng, long, 600)}
			s = withEmpties(rng, s, 700)
			for _, fn := range []simfn.Func{simfn.Jaccard, simfn.Cosine, simfn.Dice} {
				for _, tau := range []float64{0.5, 0.6, 0.8, 0.95} {
					for mask := 0; mask < 8; mask++ {
						opts := Options{Fn: fn, Threshold: tau,
							Filters: filter.Stack{Length: mask&1 != 0, Positional: mask&2 != 0, Suffix: mask&4 != 0}}
						for _, owner := range []func(uint32) bool{nil, func(w uint32) bool { return w%3 != 1 }} {
							label := fmt.Sprintf("seed %d universe %d %s τ=%g %+v owner=%v",
								seed, universe, fn, tau, opts.Filters, owner != nil)
							want := runBlock(NewBlock(opts), owner, rounds, s, perPairLoopSelf(perPairCheck), perPairLoopProbe(perPairCheck))
							b := NewBlock(opts)
							got := runBlock(b, owner, rounds, s, (*Block).Self, (*Block).Probe)
							if !reflect.DeepEqual(got.pairs, want.pairs) {
								t.Fatalf("%s: %d pairs, the per-pair loop emits %d (or a different order)",
									label, len(got.pairs), len(want.pairs))
							}
							if got.stats != want.stats {
								t.Fatalf("%s: stats %+v, the per-pair loop counts %+v", label, got.stats, want.stats)
							}
							if again := runBlock(b, owner, rounds, s, (*Block).Self, (*Block).Probe); !reflect.DeepEqual(again, got) {
								t.Fatalf("%s: the block reused after Reset diverged from the fresh one", label)
							}
							pairs += int64(len(got.pairs))
							rejected += got.stats.BitmapRejected
						}
					}
				}
			}
		}
	}
	if pairs == 0 || rejected == 0 {
		t.Fatalf("test premise broken: %d pairs, %d bitmap rejections", pairs, rejected)
	}
}

// TestBitmapFirstEqualsTailLast: moving BK's bitmap test ahead of the
// prefix scan changes no pair, no order and no count but BitmapRejected.
// Over seeded corpora — a universe inside the signature width and one
// past it, where folds collide — × Jaccard / cosine / dice × τ ∈ {0.5,
// 0.8, 0.95} × every filter stack × with and without an owner rule, Self
// and Probe emit the same pairs in the same order as the tail-last
// reference, with equal Candidates, Verified and Results.
func TestBitmapFirstEqualsTailLast(t *testing.T) {
	var pairs, extra int64
	for seed := int64(1); seed <= 3; seed++ {
		for _, universe := range []int{40, 1024} {
			rng := rand.New(rand.NewSource(seed))
			r := corpus(rng, 60, universe, 24)
			s := make([]Item, len(r))
			for i, it := range r {
				s[i] = Item{RID: uint64(1000 + i), Ranks: mutate(rng, universe, it.Ranks)}
			}
			for _, fn := range []simfn.Func{simfn.Jaccard, simfn.Cosine, simfn.Dice} {
				for _, tau := range []float64{0.5, 0.8, 0.95} {
					for mask := 0; mask < 8; mask++ {
						opts := Options{Fn: fn, Threshold: tau,
							Filters: filter.Stack{Length: mask&1 != 0, Positional: mask&2 != 0, Suffix: mask&4 != 0}}
						for _, owner := range []func(uint32) bool{nil, func(w uint32) bool { return w%3 != 1 }} {
							label := fmt.Sprintf("seed %d universe %d %s τ=%g %+v owner=%v",
								seed, universe, fn, tau, opts.Filters, owner != nil)
							got := runBlock(NewBlock(opts), owner, [][]Item{r}, s, (*Block).Self, (*Block).Probe)
							want := runBlock(NewBlock(opts), owner, [][]Item{r}, s, perPairLoopSelf(tailLastCheck), perPairLoopProbe(tailLastCheck))
							if !reflect.DeepEqual(got.pairs, want.pairs) {
								t.Fatalf("%s: %d pairs, the tail-last order emits %d (or a different order)",
									label, len(got.pairs), len(want.pairs))
							}
							g, w := got.stats, want.stats
							if g.Candidates != w.Candidates || g.Verified != w.Verified || g.Results != w.Results {
								t.Fatalf("%s: stats %+v, the tail-last order counts %+v", label, g, w)
							}
							if g.BitmapRejected < w.BitmapRejected {
								t.Fatalf("%s: %d bitmap-rejected, fewer than the tail-last %d", label, g.BitmapRejected, w.BitmapRejected)
							}
							pairs += int64(len(got.pairs))
							extra += g.BitmapRejected - w.BitmapRejected
						}
					}
				}
			}
		}
	}
	if pairs == 0 || extra == 0 {
		t.Fatalf("test premise broken: %d pairs, %d rejections moved ahead of the prefix scan", pairs, extra)
	}
}
