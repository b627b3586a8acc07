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
// here pair by pair. PK runs it after the positional filter and the
// owner rule, ahead of the suffix filter and the merge: with the optional
// filters off (so no walk prunes), a pair of an earlier member y and
// a later member x is walked once for every token common to y's index
// prefix and x's probe prefix (Candidates), and reaches the bitmap filter
// once, in the list of the least of them (the owner rule leaves it to
// that list), if there is one; each such pair is either BitmapRejected or
// Verified. Partitioned under the owner rule "tokens ≡ g mod 3", the
// groups together walk and test exactly the same pairs. BK runs it right
// after the length filter: BitmapRejected is the number of in-window
// pairs whose signatures bitsig.Admits rejects, whatever their prefixes.
// Neither placement costs a result.
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
		var walked, reach int64
		for i := range stream {
			for j := i + 1; j < len(stream); j++ {
				y, x := stream[i].Ranks, stream[j].Ranks
				if n := int64(simfn.Overlap(y[:indexPrefix(th, len(y))], x[:th.PrefixLength(len(x))])); n > 0 {
					walked += n
					reach++
				}
			}
		}
		pk := SelfJoin(items, opts, func(records.RIDPair) {})
		if pk.Candidates != walked || pk.Verified+pk.BitmapRejected != reach {
			t.Fatalf("pk: candidates %d, verified+rejected = %d+%d; want the %d common index-prefix/probe-prefix tokens and the %d pairs with one",
				pk.Candidates, pk.Verified, pk.BitmapRejected, walked, reach)
		}
		if pk.BitmapRejected == 0 || pk.Results != results {
			t.Fatalf("pk: %+v, want some bitmap rejections and the %d brute-force results", pk, results)
		}
		var parts Stats
		s := NewStream(opts, 1)
		for g := uint32(0); g < 3; g++ {
			s.Reset(func(w uint32) bool { return w%3 == g })
			for _, it := range partition(stream, th, func(w uint32) uint32 { return w % 3 })[g] {
				s.Next(0, it, func(records.RIDPair) {})
			}
			parts.Add(s.Stats())
		}
		if parts != pk {
			t.Fatalf("pk partitioned by owner rule: %+v, want the unpartitioned %+v", parts, pk)
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
// evicted item's lists, so only eager eviction through the eviction queue
// can reclaim them. Lengths grow ×1.25 per item so each probe's length
// filter evicts everything before it — the live set is always exactly
// one item. It runs with every token owned, under an owner rule that
// owns the even tokens, and with every item also holding token 0 first,
// a list every probe walks and every eviction trims from the front.
func TestEvictionCompactsPostingLists(t *testing.T) {
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters}
	th := opts.Fn.At(opts.Threshold)
	even := func(w uint32) bool { return w%2 == 0 }
	for _, c := range []struct {
		name   string
		owner  func(uint32) bool
		shared bool
	}{{"all tokens", nil, false}, {"even tokens", even, false}, {"shared token", nil, true}} {
		s := NewStream(opts, 1)
		s.Reset(c.owner)
		ix := s.ix[0]
		next := uint32(1)
		l := 20
		var last []uint32
		for i := 0; i < 30; i++ {
			ranks := make([]uint32, 0, l)
			if c.shared {
				ranks = append(ranks, 0)
			}
			for len(ranks) < l {
				ranks = append(ranks, next)
				next++
			}
			s.Next(0, Item{RID: uint64(i), Ranks: ranks}, func(p records.RIDPair) {
				t.Fatalf("%s: dissimilar items emitted pair %+v", c.name, p)
			})
			last = ranks
			l = l*5/4 + 1
		}
		// Only the final item survives; its owned index-prefix tokens are
		// all the index holds.
		p := 0
		for _, w := range last[:indexPrefix(th, len(last))] {
			if c.owner == nil || c.owner(w) {
				p++
			}
		}
		if p == 0 {
			t.Fatalf("%s: test premise broken: the last item is not indexed", c.name)
		}
		if lists, entries := ix.postingEntries(); lists != p || entries != p {
			t.Fatalf("%s: posting map holds %d lists / %d entries, want %d / %d (leak?)",
				c.name, lists, entries, p, p)
		}
		if live := len(ix.fifo) - ix.fhead; live != 1 || len(ix.fifo) > 2 {
			t.Fatalf("%s: eviction queue holds %d records, %d live, want 1 live", c.name, len(ix.fifo), live)
		}
		for i := range ix.slab {
			pl := &ix.slab[i]
			for j, e := range pl.entries[:cap(pl.entries)] {
				if e.Ranks != nil && (j < pl.head || j >= len(pl.entries)) {
					t.Fatalf("%s: evicted entry %d of list %d still pins its ranks", c.name, j, i)
				}
			}
		}
		if want := itemBytes(len(last), p); ix.Bytes() != want {
			t.Fatalf("%s: index footprint %d, want %d (one live item)", c.name, ix.Bytes(), want)
		}
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
