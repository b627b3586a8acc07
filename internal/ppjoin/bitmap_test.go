package ppjoin

import (
	"math/rand"
	"testing"

	"fuzzyjoin/internal/bitsig"
	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
)

// TestBitmapStats pins where each kernel runs the bitmap filter, counted
// here pair by pair. PK runs it between the candidate filters and the
// merge: with the optional filters off, the pairs that reach it are those
// where the earlier member's index prefix shares a token with the later
// member's probe prefix, and each is either BitmapRejected or Verified. BK runs it right after the length filter: BitmapRejected is
// the number of in-window pairs whose signatures bitsig.Admits rejects,
// whatever their prefixes. Neither placement costs a result.
func TestBitmapStats(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	// A universe past bitsig.Bits makes signature folds collide.
	for _, items := range [][]Item{corpus(rng, 80, 40, 10), corpus(rng, 80, 600, 24)} {
		opts := Options{Fn: simfn.Jaccard, Threshold: 0.8}
		th := opts.Fn.At(opts.Threshold)
		results := int64(len(BruteForceSelf(items, opts)))

		// SelfJoin's stream order: the earlier item y is indexed, the
		// later x probes.
		stream := append([]Item(nil), items...)
		sortByLen(stream)
		var reach int64
		for i := range stream {
			for j := i + 1; j < len(stream); j++ {
				y, x := stream[i].Ranks, stream[j].Ranks
				if simfn.Overlap(y[:indexPrefix(th, len(y))], x[:th.PrefixLength(len(x))]) > 0 {
					reach++
				}
			}
		}
		pk := SelfJoin(items, opts, func(records.RIDPair) {})
		if pk.Verified+pk.BitmapRejected != reach {
			t.Fatalf("pk: verified+rejected = %d+%d, want the %d pairs with a token common to the index and probe prefixes",
				pk.Verified, pk.BitmapRejected, reach)
		}
		if pk.BitmapRejected == 0 || pk.Results != results {
			t.Fatalf("pk: %+v, want some bitmap rejections and the %d brute-force results", pk, results)
		}

		for _, fs := range []filter.Stack{{}, filter.AllFilters} {
			opts.Filters = fs
			var rejected int64
			for i := range items {
				lo, hi := th.LengthBounds(len(items[i].Ranks))
				for j := i + 1; j < len(items); j++ {
					x, y := items[i].Ranks, items[j].Ranks
					if fs.Length && (len(y) < lo || len(y) > hi) {
						continue
					}
					h := bitsig.Make(x).HammingXor(bitsig.Make(y))
					if !bitsig.Admits(len(x), len(y), h, th.OverlapThreshold(len(x), len(y))) {
						rejected++
					}
				}
			}
			bk := NestedLoopSelf(items, opts, nil, func(records.RIDPair) {})
			if rejected == 0 {
				t.Fatalf("bk %+v: test premise broken: the signatures reject no pair", fs)
			}
			if bk.BitmapRejected != rejected {
				t.Fatalf("bk %+v: %d bitmap-rejected, want the %d in-window pairs the signatures reject",
					fs, bk.BitmapRejected, rejected)
			}
			if bk.Results != results {
				t.Fatalf("bk %+v: %d results, brute force has %d", fs, bk.Results, results)
			}
		}
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
	// Only the final item survives; its index prefix is all the index
	// holds.
	p := indexPrefix(opts.Fn.At(opts.Threshold), lastLen)
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

func BenchmarkVerifyCandidateHeavy(b *testing.B) {
	items := candidateHeavyCorpus(200)
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelfJoin(items, opts, func(records.RIDPair) {})
	}
}

func BenchmarkVerifyNestedLoopCandidateHeavy(b *testing.B) {
	items := candidateHeavyCorpus(200)
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NestedLoopSelf(items, opts, nil, func(records.RIDPair) {})
	}
}
