package fvt_test

import (
	"sort"
	"testing"

	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/fvt"
	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/records"
)

// fuzzItems decodes a byte string into a small set of items: every 3
// bytes become one item of up to 8 token ranks, each byte scattered
// over a 1024-rank space (the bitsig fuzzer's idiom), deduped and
// sorted as Item requires.
func fuzzItems(data []byte, baseRID uint64) []ppjoin.Item {
	var items []ppjoin.Item
	for len(data) > 0 && len(items) < 24 {
		n := 3
		if len(data) < n {
			n = len(data)
		}
		chunk := data[:n]
		data = data[n:]
		seen := map[uint32]bool{}
		var ranks []uint32
		for i, v := range chunk {
			// Each byte yields up to three ranks so short inputs still
			// produce overlapping multi-token sets.
			for _, r := range []uint32{
				uint32(v) * 37 % 1024,
				uint32(v) * 57 % 1024,
				uint32(int(v)+i) * 91 % 1024,
			} {
				if !seen[r] {
					seen[r] = true
					ranks = append(ranks, r)
				}
			}
		}
		sort.Slice(ranks, func(a, b int) bool { return ranks[a] < ranks[b] })
		items = append(items, ppjoin.Item{RID: baseRID + uint64(len(items)), Ranks: ranks})
	}
	return items
}

// FuzzFVTTraversal fuzzes the tree traversal against the brute-force
// oracle: for arbitrary item sets and thresholds, bulk and incremental
// self-joins and the R-S join must all reproduce the oracle pair set
// exactly, with the full filter stack and the bitmap gate on (the
// configuration where every pruning bound is live).
func FuzzFVTTraversal(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, []byte{3, 4, 5, 6, 7, 8}, 0.8)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{0, 0, 0}, 0.6)
	f.Add([]byte{255, 254, 253, 10, 11, 12}, []byte{10, 11, 12, 13, 14, 15}, 0.95)
	f.Add([]byte{42}, []byte{}, 0.5)
	f.Add([]byte{7, 7, 7, 99, 99, 99, 7, 7, 7}, []byte{99, 99, 99, 7, 7, 7}, 0.7)
	f.Fuzz(func(t *testing.T, rData, sData []byte, tau float64) {
		if tau < 0.05 || tau > 1 {
			return
		}
		rItems := fuzzItems(rData, 1)
		sItems := fuzzItems(sData, 1000)
		if len(rItems) == 0 {
			return
		}
		opts := fvt.Options{Threshold: tau, Filters: filter.AllFilters}

		want := ppjoin.BruteForceSelf(rItems, ppjoin.Options{Threshold: tau})
		var bulk, incr []records.RIDPair
		fvt.SelfJoinBulk(rItems, opts, func(p records.RIDPair) { bulk = append(bulk, p) })
		fvt.SelfJoinIncremental(rItems, opts, func(p records.RIDPair) { incr = append(incr, p) })
		samePairs(t, "self bulk", bulk, want)
		samePairs(t, "self incr", incr, want)

		wantRS := ppjoin.BruteForceRS(rItems, sItems, ppjoin.Options{Threshold: tau})
		var rs []records.RIDPair
		fvt.RSJoinIncremental(rItems, sItems, opts, func(p records.RIDPair) { rs = append(rs, p) })
		samePairs(t, "rs", rs, wantRS)
	})
}

func samePairs(t *testing.T, label string, got, want []records.RIDPair) {
	t.Helper()
	ppjoin.SortPairs(got)
	ppjoin.SortPairs(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, oracle has %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.A != w.A || g.B != w.B || g.Sim != w.Sim {
			t.Fatalf("%s: pair %d is (%d,%d,%v), oracle has (%d,%d,%v)",
				label, i, g.A, g.B, g.Sim, w.A, w.B, w.Sim)
		}
	}
}
