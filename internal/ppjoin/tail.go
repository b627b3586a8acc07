package ppjoin

import (
	"fuzzyjoin/internal/bitsig"
	"fuzzyjoin/internal/simfn"
)

// Tail counts how the filter funnel ended for the pairs that reached the
// bitmap filter. Stats and fvt.Stats embed it.
type Tail struct {
	// BitmapRejected is the number of pairs the bitmap filter rejected:
	// in FVT just before the merge, in PK after the positional filter
	// and the owner rule and before the suffix filter, in BK right after
	// the length filter.
	BitmapRejected int64
	// Verified is the number of pairs whose overlap was computed.
	Verified int64
	// Results is the number of pairs at or above the threshold.
	Results int64
}

// Verify ends FVT's funnel for a pair that survived every filter before
// it: Admit, then Merge. sx is x's signature, need
// the overlap the pair must reach: overlap ≥ need is exactly sim ≥ τ
// (OverlapThreshold is the precise acceptance boundary), so the verdict
// and the similarity are simfn.Threshold.Verify's.
func (t *Tail) Verify(fn simfn.Func, x, y *Item, sx bitsig.Sig, need int) (float64, bool) {
	if !t.Admit(len(x.Ranks), len(y.Ranks), sx, y.Sig(), need) {
		return 0, false
	}
	return t.Merge(fn, x, y, need)
}

// Admit is the bitmap filter (internal/bitsig): it bounds the overlap of
// sets of sizes lx and ly from their signatures sx and sy for four XORs
// and popcounts, and reports whether need is still reachable. A rejected
// pair is counted in BitmapRejected.
func (t *Tail) Admit(lx, ly int, sx, sy bitsig.Sig, need int) bool {
	if !bitsig.Admits(lx, ly, sx.HammingXor(sy), need) {
		t.BitmapRejected++
		return false
	}
	return true
}

// Merge verifies an admitted pair with the word-parallel merge and counts
// it in Verified, and in Results when its overlap reaches need.
func (t *Tail) Merge(fn simfn.Func, x, y *Item, need int) (float64, bool) {
	t.Verified++
	lx, ly := len(x.Ranks), len(y.Ranks)
	o := WordIntersect(x.Ranks, y.Ranks)
	if o < need {
		return 0, false
	}
	t.Results++
	return fn.SimFromOverlap(o, lx, ly), true
}
