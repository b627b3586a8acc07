package ppjoin

import (
	"math"
	"slices"
	"sort"

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

// Block is the BK kernel (§3.2.1, §5): a buffer of items cross-paired with
// itself (Self) and probed by streamed items (Probe) under the filter
// stack. Like an Index, one Block serves a reduce task's groups: Reset
// starts a stream and keeps the storage, Clear starts its next round.
// What depends on one item alone is computed once per item, not per pair:
// a buffered item's prefix length and signature on Add, a row's bitmap
// bound per partner length in bounds, so a pair costs a table read and
// one XOR popcount until it passes the bitmap filter (DESIGN §4.10).
type Block struct {
	opts   Options
	th     simfn.Threshold     // opts.Fn at opts.Threshold, rationalized once
	owner  func(w uint32) bool // the emit-once hook, see Index.Reset
	items  []Item
	prefix []int32 // PrefixLength of items[i]
	maxLen int     // of the buffered items
	empty  int     // buffered items without tokens: they pair with nothing
	row    []int32 // bounds(rowLen)
	rowLen int
	stats  Stats
}

const outside = math.MinInt32 // a bounds entry: length filter fails

// NewBlock returns an empty block.
func NewBlock(opts Options) *Block {
	return &Block{opts: opts, th: opts.Fn.At(opts.Threshold)}
}

// Reset empties the block for a new stream under the same options and the
// given owner rule, keeping its storage up to maxRetainedItems.
func (b *Block) Reset(owner func(w uint32) bool) {
	b.owner = owner
	b.stats = Stats{}
	b.Clear()
	if cap(b.items) > maxRetainedItems || cap(b.row) > maxRetainedItems {
		b.items, b.prefix, b.row = nil, nil, nil
	}
}

// Clear empties the buffer and keeps the stream's Stats: the next round.
func (b *Block) Clear() {
	clear(b.items) // let go of the round's rank slices
	b.items, b.prefix = b.items[:0], b.prefix[:0]
	b.maxLen, b.empty = 0, 0
}

// Grow makes room for n more items.
func (b *Block) Grow(n int) {
	b.items, b.prefix = slices.Grow(b.items, n), slices.Grow(b.prefix, n)
}

// Add buffers one item and builds its signature.
func (b *Block) Add(it Item) {
	l := len(it.Ranks)
	it.Sig()
	b.items = append(b.items, it)
	b.prefix = append(b.prefix, int32(b.th.PrefixLength(l)))
	b.maxLen = max(b.maxLen, l)
	if l == 0 {
		b.empty++
	}
}

// Stats returns the kernel work counters accumulated since Reset.
func (b *Block) Stats() Stats { return b.stats }

// bounds returns the table of a row item of l > 0 tokens (Self's x,
// Probe's s) by partner length ly ≤ maxLen: outside where the length
// filter (or emptiness) rejects ly, else the largest XOR popcount
// bitsig.Admits lets through, l + ly − 2·OverlapThreshold(l, ly). Both
// are symmetric in l and ly; consecutive rows of one length share it.
func (b *Block) bounds(l int) []int32 {
	if l == b.rowLen && len(b.row) > b.maxLen {
		return b.row
	}
	lo, hi := 1, math.MaxInt
	if b.opts.Filters.Length {
		lo, hi = b.th.LengthBounds(l)
	}
	b.row = slices.Grow(b.row[:0], b.maxLen+1)[:b.maxLen+1]
	for ly := range b.row {
		b.row[ly] = outside
		if ly >= max(lo, 1) && ly <= hi {
			b.row[ly] = int32(l + ly - 2*b.th.OverlapThreshold(l, ly))
		}
	}
	b.rowLen = l
	return b.row
}

// Self cross-pairs the buffer: each unordered pair is considered once and
// emitted with RIDs ordered (A < B).
func (b *Block) Self(emit func(records.RIDPair)) {
	emptyAfter := b.empty
	for i := range b.items {
		x := &b.items[i]
		lx := len(x.Ranks)
		if lx == 0 {
			emptyAfter--
			continue
		}
		row, px, sig := b.bounds(lx), int(b.prefix[i]), x.sig
		var rejected int64
		for j := i + 1; j < len(b.items); j++ {
			y := &b.items[j]
			ly := len(y.Ranks)
			if row[ly] == outside {
				continue
			}
			if sig.HammingXor(y.sig) > int(row[ly]) {
				rejected++
				continue
			}
			if sim, ok := b.verify(x, y, px, int(b.prefix[j]), (lx+ly-int(row[ly]))/2); ok {
				p := records.RIDPair{A: x.RID, B: y.RID, Sim: sim}
				if p.A > p.B {
					p.A, p.B = p.B, p.A
				}
				emit(p)
			}
		}
		b.stats.Candidates += int64(len(b.items) - i - 1 - emptyAfter)
		b.stats.BitmapRejected += rejected
	}
}

// Probe checks s against every buffered item. Pairs are (buffered RID,
// s's RID).
func (b *Block) Probe(s Item, emit func(records.RIDPair)) {
	ls := len(s.Ranks)
	if ls == 0 {
		return
	}
	row, ps, sig := b.bounds(ls), b.th.PrefixLength(ls), s.Sig()
	var rejected int64
	for i := range b.items {
		x := &b.items[i]
		lx := len(x.Ranks)
		if row[lx] == outside {
			continue
		}
		if x.sig.HammingXor(sig) > int(row[lx]) {
			rejected++
			continue
		}
		if sim, ok := b.verify(x, &s, int(b.prefix[i]), ps, (lx+ls-int(row[lx]))/2); ok {
			emit(records.RIDPair{A: x.RID, B: s.RID, Sim: sim})
		}
	}
	b.stats.Candidates += int64(len(b.items) - b.empty)
	b.stats.BitmapRejected += rejected
}

// verify runs the rest of the funnel on a pair the length and bitmap
// filters admitted — every pair of a group is a candidate, and the
// popcount rejects most for less than the prefix scan costs — returning
// the similarity and whether it meets the threshold; px and py are the
// prefix lengths, need the overlap threshold. A pair whose prefixes share
// no token fails the prefix filter; one whose first shared token is
// another owner's is left to that owner.
func (b *Block) verify(x, y *Item, px, py, need int) (float64, bool) {
	lx, ly := len(x.Ranks), len(y.Ranks)
	i, j, ok := firstPrefixMatch(x.Ranks, y.Ranks, px, py)
	if !ok || (b.owner != nil && !b.owner(x.Ranks[i])) {
		return 0, false
	}
	if b.opts.Filters.Positional && !filter.Positional(lx, ly, i, j, 1, need) {
		return 0, false
	}
	if b.opts.Filters.Suffix && !filter.Suffix(x.Ranks, y.Ranks, i, j, need) {
		return 0, false
	}
	return b.stats.Merge(b.opts.Fn, x, y, need)
}

// NestedLoopSelf runs the BK kernel over items (the record projections a
// Stage 2 reducer received for one routing key) in one call. owner is the
// emit-once hook of Block.Reset, nil for a stand-alone join.
func NestedLoopSelf(items []Item, opts Options, owner func(w uint32) bool, emit func(records.RIDPair)) Stats {
	b := blockOf(items, opts, owner)
	b.Self(emit)
	return b.stats
}

// NestedLoopRS is the BK kernel for the R-S case: every S item is checked
// against every R item. Pairs are (R RID, S RID).
func NestedLoopRS(rItems, sItems []Item, opts Options, owner func(w uint32) bool, emit func(records.RIDPair)) Stats {
	b := blockOf(rItems, opts, owner)
	for _, s := range sItems {
		b.Probe(s, emit)
	}
	return b.stats
}

func blockOf(items []Item, opts Options, owner func(w uint32) bool) *Block {
	b := NewBlock(opts)
	b.Reset(owner)
	b.Grow(len(items))
	for _, it := range items {
		b.Add(it)
	}
	return b
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
