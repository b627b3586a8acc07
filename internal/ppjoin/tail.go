package ppjoin

import (
	"fuzzyjoin/internal/bitsig"
	"fuzzyjoin/internal/simfn"
)

// Tail counts how the filter funnel ended for the pairs that reached its
// last step. Stats and fvt.Stats embed it.
type Tail struct {
	// BitmapRejected is the number of pairs the bitmap filter rejected
	// just before the merge.
	BitmapRejected int64
	// Verified is the number of pairs whose overlap was computed.
	Verified int64
	// Results is the number of pairs at or above the threshold.
	Results int64
}

// Verify ends the funnel for a pair that survived every filter before it,
// the same way in every kernel: the bitmap filter (internal/bitsig) bounds
// the overlap from the two signatures for four XORs and popcounts, and
// only an admitted pair pays for the word-parallel merge. sx is x's
// signature, need the overlap the pair must reach: overlap ≥ need is
// exactly sim ≥ τ (OverlapThreshold is the precise acceptance boundary),
// so the verdict and the similarity are simfn.Threshold.Verify's.
func (t *Tail) Verify(fn simfn.Func, x, y *Item, sx bitsig.Sig, need int) (float64, bool) {
	lx, ly := len(x.Ranks), len(y.Ranks)
	if !bitsig.Admits(lx, ly, sx.HammingXor(y.Sig()), need) {
		t.BitmapRejected++
		return 0, false
	}
	t.Verified++
	o := WordIntersect(x.Ranks, y.Ranks)
	if o < need {
		return 0, false
	}
	t.Results++
	return fn.SimFromOverlap(o, lx, ly), true
}
