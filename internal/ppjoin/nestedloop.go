package ppjoin

import (
	"sort"

	"fuzzyjoin/internal/bitsig"
	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
)

// firstPrefixMatch returns the 0-indexed positions of the first common
// token within the two items' prefixes, scanning both prefix lists in
// rank order (both are sorted), or ok=false when the prefixes are
// disjoint.
func firstPrefixMatch(x, y []uint32, px, py int) (i, j int, ok bool) {
	i, j = 0, 0
	for i < px && j < py {
		switch {
		case x[i] == y[j]:
			return i, j, true
		case x[i] < y[j]:
			i++
		default:
			j++
		}
	}
	return 0, 0, false
}

// checkPair applies the configured filter stack to one candidate pair and
// verifies it, returning the similarity and whether it meets the
// threshold. Pairs whose prefixes share no token are rejected outright
// (the prefix-filter necessary condition). th is opts.Fn at
// opts.Threshold, rationalized once by the caller. Stats are updated.
func checkPair(x, y *Item, opts Options, th simfn.Threshold, st *Stats) (float64, bool) {
	lx, ly := len(x.Ranks), len(y.Ranks)
	if lx == 0 || ly == 0 {
		return 0, false
	}
	st.Candidates++
	if opts.Filters.Length {
		if lo, hi := th.LengthBounds(lx); ly < lo || ly > hi {
			return 0, false
		}
	}
	px := th.PrefixLength(lx)
	py := th.PrefixLength(ly)
	i, j, ok := firstPrefixMatch(x.Ranks, y.Ranks, px, py)
	if !ok {
		return 0, false
	}
	need := th.OverlapThreshold(lx, ly)
	if opts.Filters.Positional && !filter.Positional(lx, ly, i, j, 1, need) {
		return 0, false
	}
	if opts.Filters.Suffix && !filter.Suffix(x.Ranks, y.Ranks, i, j, need) {
		return 0, false
	}
	if opts.Bitmap {
		if !bitsig.Admits(lx, ly, x.Sig().HammingXor(y.Sig()), need) {
			st.BitmapRejected++
			return 0, false
		}
		// Bitmap-admitted pairs use the word-parallel blocked merge;
		// overlap ≥ need is exactly sim ≥ τ (OverlapThreshold is the
		// precise acceptance boundary), so the decision matches Verify.
		st.Verified++
		o := WordIntersect(x.Ranks, y.Ranks)
		if o < need {
			return opts.Fn.SimFromOverlap(o, lx, ly), false
		}
		st.Results++
		return opts.Fn.SimFromOverlap(o, lx, ly), true
	}
	st.Verified++
	sim, ok := th.Verify(x.Ranks, y.Ranks)
	if ok {
		st.Results++
	}
	return sim, ok
}

// NestedLoopSelf is the BK kernel: it cross-pairs all items (the record
// projections a Stage 2 reducer received for one routing key), applying
// the filter stack and verifying survivors. Pairs are emitted with RIDs
// ordered (A < B) and each unordered pair is considered once.
func NestedLoopSelf(items []Item, opts Options, emit func(records.RIDPair)) Stats {
	var st Stats
	th := opts.Fn.At(opts.Threshold)
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			// Pointer access keeps the lazy signature memo in the slice.
			x, y := &items[i], &items[j]
			if sim, ok := checkPair(x, y, opts, th, &st); ok {
				a, b := x.RID, y.RID
				if a > b {
					a, b = b, a
				}
				emit(records.RIDPair{A: a, B: b, Sim: sim})
			}
		}
	}
	return st
}

// NestedLoopRS is the BK kernel for the R-S case: every S item is checked
// against every R item. Pairs are (R RID, S RID).
func NestedLoopRS(rItems, sItems []Item, opts Options, emit func(records.RIDPair)) Stats {
	var st Stats
	th := opts.Fn.At(opts.Threshold)
	for si := range sItems {
		s := &sItems[si]
		for ri := range rItems {
			r := &rItems[ri]
			if sim, ok := checkPair(r, s, opts, th, &st); ok {
				emit(records.RIDPair{A: r.RID, B: s.RID, Sim: sim})
			}
		}
	}
	return st
}

// BruteForceSelf verifies every unordered pair with no filtering — the
// O(n²) oracle the test suite and the internal/conformance harness
// compare every kernel and pipeline variant against. It is deliberately
// independent of the kernels above: no prefix, length, positional, or
// suffix filtering, just simfn.Verify on every pair.
func BruteForceSelf(items []Item, opts Options) []records.RIDPair {
	var out []records.RIDPair
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			sim, ok := opts.Fn.Verify(items[i].Ranks, items[j].Ranks, opts.Threshold)
			if ok {
				a, b := items[i].RID, items[j].RID
				if a > b {
					a, b = b, a
				}
				out = append(out, records.RIDPair{A: a, B: b, Sim: sim})
			}
		}
	}
	return out
}

// BruteForceRS verifies every (R, S) pair with no filtering.
func BruteForceRS(rItems, sItems []Item, opts Options) []records.RIDPair {
	var out []records.RIDPair
	for _, r := range rItems {
		for _, s := range sItems {
			sim, ok := opts.Fn.Verify(r.Ranks, s.Ranks, opts.Threshold)
			if ok {
				out = append(out, records.RIDPair{A: r.RID, B: s.RID, Sim: sim})
			}
		}
	}
	return out
}

// SortPairs orders pairs canonically by (A, B): the shared normal form
// the conformance harness diffs result sets in. Kernels emit pairs in
// algorithm-dependent orders; after SortPairs two equal result sets are
// element-wise equal.
func SortPairs(pairs []records.RIDPair) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
}
