package ppjoin

import (
	"math/rand"
	"testing"

	"fuzzyjoin/internal/simfn"
)

// TestIndexPrefixCompleteness is PPJoin's index-prefix principle: if
// sim(x, y) ≥ τ and |y| ≤ |x|, the pair's first common token lies within
// y's index prefix (and, by prefix filtering, within x's prefix).
func TestIndexPrefixCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// set draws n tokens from a 64-token universe, without repeats.
	set := func(n int, extra []uint32) []uint32 {
		seen := map[uint32]bool{}
		out := []uint32{}
		for _, w := range extra {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
		for i := 0; i < n; i++ {
			if w := uint32(rng.Intn(64)); !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
		sortRanks(out)
		return out
	}
	for _, f := range []simfn.Func{simfn.Jaccard, simfn.Cosine, simfn.Dice} {
		for _, tau := range []float64{0.5, 0.6, 2.0 / 3.0, 0.8, 0.9, 1.0} {
			th := f.At(tau)
			hits := 0
			for trial := 0; trial < 4000; trial++ {
				// y and a near copy x of it: y plus a few added tokens,
				// minus a few.
				y := set(1+rng.Intn(30), nil)
				x := set(rng.Intn(4), y[rng.Intn(1+len(y)/4):])
				if len(x) < len(y) {
					x, y = y, x
				}
				q := indexPrefix(th, len(y))
				if q < 1 || q > th.PrefixLength(len(y)) {
					t.Fatalf("%v τ=%v: index prefix %d of a %d-token set outside [1, %d]", f, tau, q, len(y), th.PrefixLength(len(y)))
				}
				if _, ok := th.Verify(x, y); !ok {
					continue
				}
				hits++
				j := 0
				for j < len(y) && simfn.Overlap(x, y[j:j+1]) == 0 {
					j++
				}
				if j >= q {
					t.Fatalf("%v τ=%v: x=%v y=%v first share y's token %d, past its index prefix %d", f, tau, x, y, j, q)
				}
			}
			if hits == 0 {
				t.Fatalf("%v τ=%v: test premise broken, no similar pair", f, tau)
			}
		}
	}
}
