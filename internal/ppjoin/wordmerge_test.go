package ppjoin

import (
	"math/rand"
	"testing"

	"fuzzyjoin/internal/simfn"
)

// TestWordIntersectMatchesOverlap: the word-parallel merge must agree
// with the scalar simfn.Overlap on random strictly increasing slices
// across overlap regimes, lengths, and density (dense ranks exercise
// the blocked path, sparse ones the galloping path).
func TestWordIntersectMatchesOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	randSet := func(n, universe int) []uint32 {
		seen := map[uint32]bool{}
		var s []uint32
		for len(s) < n {
			v := uint32(rng.Intn(universe))
			if !seen[v] {
				seen[v] = true
				s = append(s, v)
			}
		}
		sortRanks(s)
		return s
	}
	for trial := 0; trial < 2000; trial++ {
		universe := []int{8, 40, 300, 100000}[trial%4]
		nx, ny := rng.Intn(20), rng.Intn(20)
		if nx > universe {
			nx = universe
		}
		if ny > universe {
			ny = universe
		}
		x, y := randSet(nx, universe), randSet(ny, universe)
		want := simfn.Overlap(x, y)
		if got := WordIntersect(x, y); got != want {
			t.Fatalf("trial %d: WordIntersect(%v, %v) = %d, Overlap = %d", trial, x, y, got, want)
		}
	}
}

// TestWordIntersectEdgeCases covers the block/tail boundary shapes the
// random trials might miss.
func TestWordIntersectEdgeCases(t *testing.T) {
	cases := []struct {
		x, y []uint32
		want int
	}{
		{nil, nil, 0},
		{[]uint32{1}, nil, 0},
		{[]uint32{1}, []uint32{1}, 1},
		{[]uint32{1}, []uint32{2}, 0},
		{[]uint32{1, 2}, []uint32{1, 2}, 2},
		{[]uint32{1, 2}, []uint32{2, 3}, 1},
		{[]uint32{1, 3}, []uint32{2, 4}, 0},
		{[]uint32{1, 2, 3}, []uint32{3}, 1},                              // odd tail on one side
		{[]uint32{1, 2, 3}, []uint32{0, 3, 9}, 1},                        // odd tails both sides
		{[]uint32{0, 1, 2, 3, 4, 5}, []uint32{5}, 1},                     // gallop to last element
		{[]uint32{0, 1, 2, 3, 100, 101}, []uint32{100, 101}, 2},          // gallop skips a run
		{[]uint32{0, 1000, 2000, 3000}, []uint32{1, 999, 2000, 3001}, 1}, // interleaved blocks
		{[]uint32{0, 1, 2, 3}, []uint32{0, 1, 2, 3}, 4},                  // identical
		{[]uint32{2, 3}, []uint32{1, 2, 3, 4}, 2},                        // contained
	}
	for _, c := range cases {
		if got := WordIntersect(c.x, c.y); got != c.want {
			t.Fatalf("WordIntersect(%v, %v) = %d, want %d", c.x, c.y, got, c.want)
		}
		if got := WordIntersect(c.y, c.x); got != c.want {
			t.Fatalf("WordIntersect(%v, %v) = %d, want %d (swapped)", c.y, c.x, got, c.want)
		}
	}
}

// TestGallopBoundary pins the exponential-probe boundary search.
func TestGallopBoundary(t *testing.T) {
	a := make([]uint32, 1000)
	for i := range a {
		a[i] = uint32(2 * i)
	}
	for _, v := range []uint32{0, 1, 2, 999, 1000, 1998, 1999, 2000} {
		for _, start := range []int{0, 1, 2, 500, 999, 1000} {
			got := gallop(a, start, v)
			want := start
			for want < len(a) && a[want] < v {
				want++
			}
			if got != want {
				t.Fatalf("gallop(start=%d, v=%d) = %d, want %d", start, v, got, want)
			}
		}
	}
}

// benchmarkVerifyMerge measures the raw merge step over the same
// candidate-heavy rank sets the kernel benchmarks use, word-parallel vs
// scalar.
func benchmarkVerifyMerge(b *testing.B, merge func(x, y []uint32) int) {
	items := candidateHeavyCorpus(200)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		x := items[i%len(items)].Ranks
		y := items[(i*7+1)%len(items)].Ranks
		n += merge(x, y)
	}
	if n < 0 {
		b.Fatal("impossible")
	}
}

func BenchmarkVerifyWordMerge(b *testing.B) { benchmarkVerifyMerge(b, WordIntersect) }
func BenchmarkVerifyScalarMerge(b *testing.B) {
	benchmarkVerifyMerge(b, func(x, y []uint32) int { return simfn.Overlap(x, y) })
}
