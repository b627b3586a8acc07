package ppjoin

import (
	"math/rand"
	"reflect"
	"testing"

	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/records"
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

// tokenGroup builds one individually routed group of token 0: n clustered
// items in length order, each holding rank 0 first, so 0 is in every
// item's prefix and index prefix.
func tokenGroup(rng *rand.Rand, n int) []Item {
	items := corpus(rng, n, 400, 14)
	for i := range items {
		ranks := make([]uint32, 0, len(items[i].Ranks)+1)
		ranks = append(ranks, 0)
		for _, w := range items[i].Ranks {
			ranks = append(ranks, w+1)
		}
		items[i].Ranks = ranks
	}
	sortByLen(items)
	return items
}

// tokenTrace is everything a caller can observe of one TokenIndex stream.
type tokenTrace struct {
	pairs []records.RIDPair
	bytes []int64
	stats Stats
}

func driveToken(tx *TokenIndex, items []Item) tokenTrace {
	var tr tokenTrace
	emit := func(p records.RIDPair) { tr.pairs = append(tr.pairs, p) }
	for _, it := range items {
		tx.ProbeAndAdd(it, emit)
		tr.bytes = append(tr.bytes, tx.Bytes())
	}
	tr.stats = tx.Stats()
	return tr
}

// TestTokenIndexResetEqualsFresh: a reused TokenIndex is
// indistinguishable from a new one per group — the same pairs in the same
// order, the same Stats, the same Bytes() after every item — under every
// filter subset, through groups of 0–300 items (with the length filter,
// one 5,000-item group in the middle that outgrows the retention caps),
// and groups of other tokens that the items carry only in part.
func TestTokenIndexResetEqualsFresh(t *testing.T) {
	pairs := 0
	for mask := 0; mask < 8; mask++ {
		opts := Options{Fn: simfn.Jaccard, Threshold: 0.8,
			Filters: filter.Stack{Length: mask&1 != 0, Positional: mask&2 != 0, Suffix: mask&4 != 0}}
		rng := rand.New(rand.NewSource(int64(400 + mask)))
		reused := NewTokenIndex(opts)
		for g := 0; g < 60; g++ {
			n := rng.Intn(24)
			if g%8 == 0 {
				n = rng.Intn(301)
			}
			if g == 30 && opts.Filters.Length {
				n = 5000 // quadratic without the length filter's eviction
			}
			items := tokenGroup(rng, n)
			tok := uint32(0)
			if g%3 == 2 {
				tok = uint32(1 + rng.Intn(40)) // a token some items lack
			}
			fresh := NewTokenIndex(opts)
			fresh.Reset(tok)
			want := driveToken(fresh, items)
			reused.Reset(tok)
			if got := driveToken(reused, items); !reflect.DeepEqual(got, want) {
				t.Fatalf("opts %+v group %d (%d items): reused index diverged from a fresh one\n got: %d pairs, stats %+v\nwant: %d pairs, stats %+v",
					opts, g, n, len(got.pairs), got.stats, len(want.pairs), want.stats)
			}
			pairs += len(want.pairs)
		}
	}
	if pairs == 0 {
		t.Fatal("test premise broken: no pairs in any group")
	}
}

// TestTokenIndexRetention: the list and rank chunks a hot group grew past
// the retention caps are released at the next Reset, an ordinary group's
// are kept without pinning its ranks, and a warmed index then runs a group
// without allocating.
func TestTokenIndexRetention(t *testing.T) {
	// No length filter for the hot group: nothing is evicted.
	opts := Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.Stack{Positional: true, Suffix: true}}
	rng := rand.New(rand.NewSource(6))
	tx := NewTokenIndex(opts)
	tx.Reset(0)
	driveToken(tx, tokenGroup(rng, 5000))
	if len(tx.list) <= maxRetainedItems || len(tx.chunks) <= maxSpareChunks {
		t.Fatalf("test premise broken: hot group listed %d items in %d rank chunks", len(tx.list), len(tx.chunks))
	}
	tx.Reset(0)
	if tx.list != nil || tx.chunks != nil || len(tx.spare) > maxSpareChunks {
		t.Fatalf("hot group's storage outlived Reset: cap(list) %d, %d chunks, %d spare (cap %d)",
			cap(tx.list), len(tx.chunks), len(tx.spare), maxSpareChunks)
	}

	small := tokenGroup(rng, 40)
	got := driveToken(tx, small)
	if len(got.pairs) == 0 {
		t.Fatal("test premise broken: the group has no pairs")
	}
	tx.Reset(0)
	if cap(tx.list) == 0 || len(tx.list) != 0 || tx.Bytes() != 0 {
		t.Fatal("an ordinary group's list was not kept empty across Reset")
	}
	for i, e := range tx.list[:cap(tx.list)] {
		if e.Ranks != nil {
			t.Fatalf("retained list slot %d still pins a rank slice", i)
		}
	}
	emit := func(records.RIDPair) {}
	if n := testing.AllocsPerRun(50, func() {
		tx.Reset(0)
		for _, it := range small {
			tx.ProbeAndAdd(it, emit)
		}
	}); n != 0 {
		t.Errorf("%v allocations per group on a warmed index, want 0", n)
	}
}
