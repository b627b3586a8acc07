package ppjoin

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
)

// tailLastCheck is Block.check with the bitmap filter at the end of the
// funnel, just before the merge: BK's order before the signature test
// moved ahead of the prefix scan. It is the reference
// TestBitmapFirstEqualsTailLast holds the kernel to.
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

// tailLastSelf and tailLastProbe are Block.Self and Block.Probe over
// tailLastCheck.
func tailLastSelf(b *Block, emit func(records.RIDPair)) {
	for i := range b.items {
		x := &b.items[i]
		lo, hi := b.window(len(x.Ranks))
		for j := i + 1; j < len(b.items); j++ {
			y := &b.items[j]
			if sim, ok := tailLastCheck(b, x, y, int(b.prefix[i]), int(b.prefix[j]), len(y.Ranks), lo, hi); ok {
				p := records.RIDPair{A: x.RID, B: y.RID, Sim: sim}
				if p.A > p.B {
					p.A, p.B = p.B, p.A
				}
				emit(p)
			}
		}
	}
}

func tailLastProbe(b *Block, s Item, emit func(records.RIDPair)) {
	ps := b.th.PrefixLength(len(s.Ranks))
	lo, hi := b.window(len(s.Ranks))
	for i := range b.items {
		x := &b.items[i]
		if sim, ok := tailLastCheck(b, x, &s, int(b.prefix[i]), ps, len(x.Ranks), lo, hi); ok {
			emit(records.RIDPair{A: x.RID, B: s.RID, Sim: sim})
		}
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
	type trace struct {
		pairs []records.RIDPair
		stats Stats
	}
	run := func(opts Options, owner func(uint32) bool, r, s []Item, self func(*Block, func(records.RIDPair)), probe func(*Block, Item, func(records.RIDPair))) trace {
		var tr trace
		emit := func(p records.RIDPair) { tr.pairs = append(tr.pairs, p) }
		b := NewBlock(opts)
		b.Reset(owner)
		for _, it := range r {
			b.Add(it)
		}
		self(b, emit)
		for _, it := range s {
			probe(b, it, emit)
		}
		tr.stats = b.Stats()
		return tr
	}
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
							got := run(opts, owner, r, s, (*Block).Self, (*Block).Probe)
							want := run(opts, owner, r, s, tailLastSelf, tailLastProbe)
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
