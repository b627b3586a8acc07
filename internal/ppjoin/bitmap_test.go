package ppjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
)

// TestBitmapMatchesBruteForce: the bitmap filter is admissible, so every
// kernel must produce identical results with it on. Universe 50 keeps the
// rank fold injective; universe 2000 forces fold collisions (which weaken
// the bound but must never change the output).
func TestBitmapMatchesBruteForce(t *testing.T) {
	for _, universe := range []int{50, 2000} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed + 300))
			items := corpus(rng, 60, universe, 12)
			for _, tau := range []float64{0.5, 0.8, 0.9} {
				for _, fn := range []simfn.Func{simfn.Jaccard, simfn.Cosine, simfn.Dice} {
					label := fmt.Sprintf("u=%d seed=%d τ=%v fn=%v", universe, seed, tau, fn)
					want := BruteForceSelf(items, Options{Fn: fn, Threshold: tau})
					opts := Options{Fn: fn, Threshold: tau, Filters: filter.AllFilters, Bitmap: true}
					var got []records.RIDPair
					SelfJoin(items, opts, func(p records.RIDPair) { got = append(got, p) })
					assertSamePairs(t, got, want, "ppjoin+bitmap "+label)
					got = got[:0]
					NestedLoopSelf(items, opts, nil, func(p records.RIDPair) { got = append(got, p) })
					assertSamePairs(t, got, want, "nested+bitmap "+label)
				}
			}
		}
	}
}

func TestBitmapMatchesBruteForceRS(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	r := corpus(rng, 40, 50, 12)
	s := make([]Item, len(r))
	for i, it := range r {
		s[i] = Item{RID: uint64(3000 + i), Ranks: mutate(rng, 50, it.Ranks)}
	}
	want := BruteForceRS(r, s, Options{Fn: simfn.Jaccard, Threshold: 0.8})
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters, Bitmap: true}
	var got []records.RIDPair
	RSJoin(r, s, opts, func(p records.RIDPair) { got = append(got, p) })
	assertSamePairs(t, got, want, "rs+bitmap")
	got = got[:0]
	NestedLoopRS(r, s, opts, nil, func(p records.RIDPair) { got = append(got, p) })
	assertSamePairs(t, got, want, "nested-rs+bitmap")
}

// TestBitmapStats: turning the filter on must only move pairs from the
// Verified bucket to the BitmapRejected bucket — never change Candidates
// or Results.
func TestBitmapStats(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	items := corpus(rng, 80, 40, 10)
	base := Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters}
	on := base
	on.Bitmap = true
	stOff := SelfJoin(items, base, func(records.RIDPair) {})
	stOn := SelfJoin(items, on, func(records.RIDPair) {})
	if stOff.BitmapRejected != 0 {
		t.Fatalf("bitmap off but BitmapRejected = %d", stOff.BitmapRejected)
	}
	if stOn.Candidates != stOff.Candidates {
		t.Fatalf("candidates changed: %d vs %d", stOn.Candidates, stOff.Candidates)
	}
	if stOn.Results != stOff.Results {
		t.Fatalf("results changed: %d vs %d", stOn.Results, stOff.Results)
	}
	if stOn.Verified+stOn.BitmapRejected != stOff.Verified {
		t.Fatalf("verified(on)+rejected(on) = %d+%d, want verified(off) = %d",
			stOn.Verified, stOn.BitmapRejected, stOff.Verified)
	}
}

// TestEvictionCompactsPostingLists pins the posting-list leak fix: a long
// stream of non-repeating tokens means no later probe ever touches an
// evicted item's lists, so only eager compaction on eviction can reclaim
// them. Lengths grow ×1.25 per item so each probe's length filter evicts
// everything before it — the live set is always exactly one item.
func TestEvictionCompactsPostingLists(t *testing.T) {
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters}
	ix := NewIndex(opts)
	next := uint32(0)
	l, lastLen := 20, 0
	for i := 0; i < 30; i++ {
		ranks := make([]uint32, l)
		for j := range ranks {
			ranks[j] = next
			next++
		}
		ix.ProbeAndAdd(Item{RID: uint64(i), Ranks: ranks}, func(p records.RIDPair) {
			t.Fatalf("disjoint items emitted pair %+v", p)
		})
		lastLen = l
		l = l*5/4 + 1
	}
	// Only the final item survives; its prefix is all the index holds.
	p := opts.Fn.PrefixLength(lastLen, opts.Threshold)
	if lists, entries := ix.postingEntries(); lists != p || entries != p {
		t.Fatalf("posting map holds %d lists / %d entries, want %d / %d (leak?)",
			lists, entries, p, p)
	}
	for i := 0; i < len(ix.items)-1; i++ {
		if !ix.slots[i].evicted {
			t.Fatalf("item %d not evicted", i)
		}
		if ix.items[i].Ranks != nil {
			t.Fatalf("evicted item %d still pins its ranks", i)
		}
	}
	last := ix.items[len(ix.items)-1]
	if want := itemBytes(last, p); ix.Bytes() != want {
		t.Fatalf("index footprint %d, want %d (one live item)", ix.Bytes(), want)
	}
}

// candidateHeavyCorpus builds the verification-bound workload: every item
// shares the 79-token core {0..78} (so every pair passes the prefix
// filter via the core's low ranks) plus 21 unique-ish tokens from
// {79..255}. Pair similarity lands near 0.69 — below τ=0.8 but close
// enough that merge-based verification walks most of both rank lists
// before its early-termination bound trips. The universe stays within
// bitsig.Bits, so the signature fold is injective and the bitmap bound is
// exact.
func candidateHeavyCorpus(n int) []Item {
	rng := rand.New(rand.NewSource(17))
	items := make([]Item, n)
	for i := range items {
		ranks := make([]uint32, 0, 100)
		for r := uint32(0); r < 79; r++ {
			ranks = append(ranks, r)
		}
		seen := map[uint32]bool{}
		for len(ranks) < 100 {
			v := 79 + uint32(rng.Intn(177))
			if !seen[v] {
				seen[v] = true
				ranks = append(ranks, v)
			}
		}
		sortRanks(ranks)
		items[i] = Item{RID: uint64(i + 1), Ranks: ranks}
	}
	return items
}

func benchmarkVerifySelfJoin(b *testing.B, bitmap bool) {
	items := candidateHeavyCorpus(200)
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.8, Bitmap: bitmap}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelfJoin(items, opts, func(records.RIDPair) {})
	}
}

func BenchmarkVerifyCandidateHeavy(b *testing.B)       { benchmarkVerifySelfJoin(b, false) }
func BenchmarkVerifyCandidateHeavyBitmap(b *testing.B) { benchmarkVerifySelfJoin(b, true) }

func benchmarkVerifyNestedLoop(b *testing.B, bitmap bool) {
	items := candidateHeavyCorpus(200)
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.8, Bitmap: bitmap}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NestedLoopSelf(items, opts, nil, func(records.RIDPair) {})
	}
}

func BenchmarkVerifyNestedLoopCandidateHeavy(b *testing.B) { benchmarkVerifyNestedLoop(b, false) }
func BenchmarkVerifyNestedLoopCandidateHeavyBitmap(b *testing.B) {
	benchmarkVerifyNestedLoop(b, true)
}
