package ppjoin

import (
	"testing"

	"fuzzyjoin/internal/simfn"
)

// FuzzTailVerify pins the kernels' one verification tail to the oracle:
// for Jaccard, cosine and dice at τ ∈ {0.5, 0.8, 0.95}, Tail.Verify with
// need = OverlapThreshold accepts exactly the pairs simfn.Func.Verify
// accepts, with the same Sim, and counts every pair once — bitmap-rejected
// or verified; Admit followed by Merge, as BK calls them, is Verify to the
// verdict, the Sim and the counts. The seeds are FuzzBitsigAdmissible's
// corpus (internal/bitsig): the 4-of-5 boundary, signature fold
// collisions, identical singletons.
func FuzzTailVerify(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4}, []byte{0, 1, 2, 3})
	f.Add([]byte{10, 20, 30}, []byte{10, 20, 31})
	f.Add([]byte{1}, []byte{1})
	f.Add([]byte("\x07\x64\xc8\xfa\x31\x55"), []byte("\x07\x64\xc9\xfb\x32"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		// ×37 mod 1024 spreads the bytes over a universe wider than the
		// signature, so folding collisions occur.
		toItem := func(raw []byte) Item {
			seen := map[uint32]bool{}
			var ranks []uint32
			for _, v := range raw {
				if r := uint32(v) * 37 % 1024; !seen[r] {
					seen[r] = true
					ranks = append(ranks, r)
				}
			}
			sortRanks(ranks)
			return Item{Ranks: ranks}
		}
		x, y := toItem(a), toItem(b)
		if len(x.Ranks) == 0 || len(y.Ranks) == 0 {
			return // no kernel hands the tail an empty set
		}
		for _, fn := range []simfn.Func{simfn.Jaccard, simfn.Cosine, simfn.Dice} {
			for _, tau := range []float64{0.5, 0.8, 0.95} {
				wantSim, want := fn.Verify(x.Ranks, y.Ranks, tau)
				need := fn.OverlapThreshold(len(x.Ranks), len(y.Ranks), tau)
				var st Tail
				sim, ok := st.Verify(fn, &x, &y, x.Sig(), need)
				if ok != want || (ok && sim != wantSim) {
					t.Fatalf("%v τ=%v x=%v y=%v: tail (%v, %v), Verify (%v, %v)",
						fn, tau, x.Ranks, y.Ranks, sim, ok, wantSim, want)
				}
				wantCount := Tail{BitmapRejected: 1}
				if st.Verified == 1 {
					wantCount = Tail{Verified: 1}
				}
				if ok {
					wantCount = Tail{Verified: 1, Results: 1}
				}
				if st != wantCount {
					t.Fatalf("%v τ=%v x=%v y=%v ok=%v: counted %+v", fn, tau, x.Ranks, y.Ranks, ok, st)
				}
				// BK calls the two steps apart; together they are Verify.
				var split Tail
				var splitSim float64
				var splitOK bool
				if split.Admit(len(x.Ranks), len(y.Ranks), x.Sig(), y.Sig(), need) {
					splitSim, splitOK = split.Merge(fn, &x, &y, need)
				}
				if split != st || splitOK != ok || splitSim != sim {
					t.Fatalf("%v τ=%v x=%v y=%v: Admit+Merge (%v, %v) %+v, Verify (%v, %v) %+v",
						fn, tau, x.Ranks, y.Ranks, splitSim, splitOK, split, sim, ok, st)
				}
			}
		}
	})
}
