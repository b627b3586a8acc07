// Package ppjoin implements the single-node set-similarity join kernels
// that Stage 2 reducers run: the PPJoin/PPJoin+ inverted-index algorithm
// of Xiao et al. (WWW 2008) — the paper's "PK" kernel and the
// state-of-the-art baseline it builds on — plus the nested-loop kernel
// with the same filter stack (the paper's "BK"), and a brute-force
// reference join used as the test oracle.
//
// Items are record projections: an RID and the join attribute's token
// ranks sorted rarest-first. The streaming Index expects items in
// non-decreasing length order (the Stage 2 secondary sort guarantees it)
// and exploits that order to evict index entries that the length filter
// proves useless — the memory optimization §3.2.2 and §4 of the
// reproduction target describe.
package ppjoin

import (
	"math"
	"sort"

	"fuzzyjoin/internal/bitsig"
	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
)

// Item is one record projection.
type Item struct {
	RID   uint64
	Ranks []uint32

	// sig memoizes the bitmap-filter signature: built on first use so
	// an R-side item probed by a stream of S items folds its ranks only
	// once. Kernels run single-threaded per reduce group, so the lazy
	// fill is race-free.
	sig    bitsig.Sig
	hasSig bool
}

// Sig returns the item's bitmap signature, building it on first call.
func (it *Item) Sig() bitsig.Sig {
	if !it.hasSig {
		it.sig, it.hasSig = bitsig.Make(it.Ranks), true
	}
	return it.sig
}

// Options configures a kernel.
type Options struct {
	// Fn is the similarity function (default Jaccard).
	Fn simfn.Func
	// Threshold is the similarity threshold τ.
	Threshold float64
	// Filters selects the filters applied after the prefix filter.
	// Zero value disables all (prefix filter + verification only);
	// use filter.AllFilters for the full PPJoin+ stack.
	Filters filter.Stack
	// Bitmap enables the bitmap-filter fast path (internal/bitsig): a
	// word-parallel overlap upper bound rejects candidates immediately
	// before the merge-based verification. Admissible — results are
	// identical with it on or off.
	Bitmap bool
}

// Stats counts kernel work for the ablation experiments.
type Stats struct {
	// Candidates is the number of candidate pairs considered (after
	// prefix filtering, before the other filters).
	Candidates int64
	// BitmapRejected is the number of candidates the bitmap filter
	// rejected just before verification (0 unless Options.Bitmap).
	BitmapRejected int64
	// Verified is the number of pairs whose similarity was computed.
	Verified int64
	// Results is the number of pairs at or above the threshold.
	Results int64
}

type entry struct {
	item int // index into Index.items
	pos  int // token position within the item's prefix
}

// Index is a streaming PPJoin+ index for items arriving in
// non-decreasing length order.
type Index struct {
	opts    Options
	th      simfn.Threshold // opts.Fn at opts.Threshold, rationalized once
	items   []Item
	lens    []int
	posting map[uint32][]entry
	// evicted[i] marks items removed by length-filter eviction.
	evicted []bool
	// alive tracks items not yet evicted, in insertion (length) order;
	// head is the first alive index.
	head  int
	bytes int64
	stats Stats

	// Probe scratch state, generation-stamped so probes allocate nothing:
	// gen[i] == curGen marks item i as seen by the current probe, with
	// overlap[i] its accumulated prefix overlap, need[i] the cached
	// overlap threshold for (probe, item i) — computed once per
	// candidate, not once per posting entry — and pruned[i] whether a
	// filter killed it.
	curGen  uint32
	gen     []uint32
	overlap []int32
	need    []int32
	pruned  []bool
	cand    []int
}

// NewIndex creates an empty streaming index.
func NewIndex(opts Options) *Index {
	return &Index{opts: opts, th: opts.Fn.At(opts.Threshold), posting: make(map[uint32][]entry)}
}

// Stats returns the kernel work counters accumulated so far.
func (ix *Index) Stats() Stats { return ix.stats }

// Bytes estimates the index's live memory footprint: rank storage plus
// posting entries for non-evicted items.
func (ix *Index) Bytes() int64 { return ix.bytes }

// itemBytes estimates one item's contribution to the index footprint.
func itemBytes(it Item, prefix int) int64 {
	return int64(16 + 4*len(it.Ranks) + 16*prefix)
}

// Add indexes an item without probing (the R side of an R-S join). Items
// must arrive in non-decreasing length order.
func (ix *Index) Add(it Item) {
	p := ix.th.PrefixLength(len(it.Ranks))
	idx := len(ix.items)
	ix.items = append(ix.items, it)
	ix.lens = append(ix.lens, len(it.Ranks))
	ix.evicted = append(ix.evicted, false)
	for i := 0; i < p; i++ {
		w := it.Ranks[i]
		ix.posting[w] = append(ix.posting[w], entry{item: idx, pos: i})
	}
	ix.bytes += itemBytes(it, p)
}

// evictBelow drops every indexed item shorter than minLen. Streaming
// callers pass the length filter's lower bound for the current probe;
// because lengths arrive non-decreasing, eviction is monotone. Evicted
// items release their rank storage immediately and their posting-list
// entries are compacted away (entries sit in insertion order, so the
// dead entries of a list always form a prefix) — without this, tokens
// the remaining stream never probes would hold their entries forever.
func (ix *Index) evictBelow(minLen int) {
	start := ix.head
	for ix.head < len(ix.items) && ix.lens[ix.head] < minLen {
		if !ix.evicted[ix.head] {
			ix.evicted[ix.head] = true
			p := ix.th.PrefixLength(ix.lens[ix.head])
			ix.bytes -= itemBytes(ix.items[ix.head], p)
		}
		ix.head++
	}
	for i := start; i < ix.head; i++ {
		it := &ix.items[i]
		if it.Ranks == nil {
			continue
		}
		p := ix.th.PrefixLength(len(it.Ranks))
		for j := 0; j < p; j++ {
			ix.compactPosting(it.Ranks[j])
		}
		it.Ranks = nil // the item can never be probed again; free its ranks
	}
}

// compactPosting trims the dead prefix (entries of evicted items) from
// token w's posting list. Fully dead lists are deleted outright; partly
// dead lists are rewritten only once the dead prefix reaches half the
// list, which keeps the trim amortized O(1) per entry while bounding
// retained garbage to the live entry count.
func (ix *Index) compactPosting(w uint32) {
	post := ix.posting[w]
	k := sort.Search(len(post), func(i int) bool { return post[i].item >= ix.head })
	switch {
	case k == 0:
	case k == len(post):
		delete(ix.posting, w)
	case 2*k >= len(post):
		ix.posting[w] = append(post[:0], post[k:]...)
	}
}

// postingEntries reports the posting map's list and entry counts — the
// test hook for the eviction-compaction invariant (retained entries stay
// proportional to live items, even for tokens no later probe touches).
func (ix *Index) postingEntries() (lists, entries int) {
	for _, post := range ix.posting {
		lists++
		entries += len(post)
	}
	return lists, entries
}

// Probe finds all indexed items similar to x and passes them to emit as
// (indexed RID, probe RID, sim). Length-filter eviction runs first when
// the filter is enabled.
func (ix *Index) Probe(x Item, emit func(pair records.RIDPair)) {
	lx := len(x.Ranks)
	if lx == 0 {
		return
	}
	// The length window depends on the probe alone: computed here, not
	// per candidate. Without the length filter it admits every length.
	lo, hi := 0, math.MaxInt
	if ix.opts.Filters.Length {
		lo, hi = ix.th.LengthBounds(lx)
		ix.evictBelow(lo)
	}
	p := ix.th.PrefixLength(lx)

	// Reset the generation-stamped scratch arrays (no per-probe
	// allocation beyond amortized growth).
	ix.curGen++
	if n := len(ix.items); len(ix.gen) < n {
		ix.gen = append(ix.gen, make([]uint32, n-len(ix.gen))...)
		ix.overlap = append(ix.overlap, make([]int32, n-len(ix.overlap))...)
		ix.need = append(ix.need, make([]int32, n-len(ix.need))...)
		ix.pruned = append(ix.pruned, make([]bool, n-len(ix.pruned))...)
	}
	ix.cand = ix.cand[:0]

	for i := 0; i < p; i++ {
		w := x.Ranks[i]
		post := ix.posting[w]
		live := post[:0]
		for _, e := range post {
			if ix.evicted[e.item] {
				continue // compact lazily
			}
			live = append(live, e)
			seen := ix.gen[e.item] == ix.curGen
			if seen && ix.pruned[e.item] {
				continue
			}
			y := &ix.items[e.item]
			ly := ix.lens[e.item]
			var a, need int
			if seen {
				a = int(ix.overlap[e.item])
				need = int(ix.need[e.item])
			} else {
				ix.gen[e.item] = ix.curGen
				ix.overlap[e.item] = 0
				ix.pruned[e.item] = false
				ix.stats.Candidates++
				if ly < lo || ly > hi {
					ix.pruned[e.item] = true
					continue
				}
				// The overlap threshold depends only on (lx, ly, τ):
				// compute it once per candidate, not once per posting
				// entry of an already-seen candidate.
				need = ix.th.OverlapThreshold(lx, ly)
				ix.need[e.item] = int32(need)
			}
			if ix.opts.Filters.Positional && !filter.Positional(lx, ly, i, e.pos, a+1, need) {
				ix.pruned[e.item] = true
				continue
			}
			if !seen && ix.opts.Filters.Suffix && !filter.Suffix(x.Ranks, y.Ranks, i, e.pos, need) {
				ix.pruned[e.item] = true
				continue
			}
			if !seen {
				ix.cand = append(ix.cand, e.item)
			}
			ix.overlap[e.item] = int32(a + 1)
		}
		ix.posting[w] = live
	}

	// Verify surviving candidates in index order for deterministic
	// output. With the bitmap filter on, the word-parallel overlap bound
	// rejects most failing candidates here for the cost of four XORs and
	// popcounts, skipping their merge-based verification entirely.
	var sx bitsig.Sig
	if ix.opts.Bitmap {
		sx = x.Sig()
	}
	cand := ix.cand
	sort.Ints(cand)
	for _, c := range cand {
		if ix.pruned[c] {
			continue
		}
		y := &ix.items[c]
		if ix.opts.Bitmap {
			need := int(ix.need[c])
			if !bitsig.Admits(lx, ix.lens[c], sx.HammingXor(y.Sig()), need) {
				ix.stats.BitmapRejected++
				continue
			}
			// Bitmap-admitted pairs take the word-parallel blocked
			// merge; overlap ≥ need is exactly sim ≥ τ.
			ix.stats.Verified++
			o := WordIntersect(x.Ranks, y.Ranks)
			if o >= need {
				ix.stats.Results++
				emit(records.RIDPair{A: y.RID, B: x.RID,
					Sim: ix.opts.Fn.SimFromOverlap(o, lx, ix.lens[c])})
			}
			continue
		}
		ix.stats.Verified++
		sim, ok := ix.th.Verify(x.Ranks, y.Ranks)
		if ok {
			ix.stats.Results++
			emit(records.RIDPair{A: y.RID, B: x.RID, Sim: sim})
		}
	}

	// Release outsized candidate scratch: the slice's capacity tracks the
	// largest candidate set any probe ever produced, so without this cap a
	// single pathological probe (one hot token shared with every indexed
	// item) pins that worst-case allocation for the index's lifetime — a
	// real leak for the long-lived online-service index, which reuses one
	// Index across its whole uptime.
	if cap(ix.cand) > maxCandScratch {
		ix.cand = nil
	}
}

// maxCandScratch bounds the probe candidate-scratch capacity retained
// between probes (entries, i.e. 32 KiB of ints). Typical probes stay far
// below it; a larger candidate set simply reallocates for that probe.
const maxCandScratch = 1 << 12

// ProbeAndAdd probes with x and then indexes it — the self-join streaming
// step. Emitted pairs are normalized to A < B by RID (the self-join pair
// convention Stage 3 dedups on).
func (ix *Index) ProbeAndAdd(x Item, emit func(pair records.RIDPair)) {
	ix.Probe(x, func(p records.RIDPair) {
		if p.A > p.B {
			p.A, p.B = p.B, p.A
		}
		emit(p)
	})
	ix.Add(x)
}

// SelfJoin runs the full single-node PPJoin+ self-join: items are sorted
// by length and streamed through an Index. Pairs are emitted with the
// smaller stream position first; each similar pair is emitted exactly
// once.
func SelfJoin(items []Item, opts Options, emit func(records.RIDPair)) Stats {
	sorted := append([]Item(nil), items...)
	sortByLen(sorted)
	ix := NewIndex(opts)
	for _, it := range sorted {
		ix.ProbeAndAdd(it, emit)
	}
	return ix.Stats()
}

// RSJoin runs the full single-node PPJoin+ R-S join. To respect the
// streaming length order across both relations it merges the two sorted
// streams: every R item with length ≤ the length-filter upper bound of an
// S item is added before that S item probes. Pairs are (R RID, S RID).
func RSJoin(rItems, sItems []Item, opts Options, emit func(records.RIDPair)) Stats {
	r := append([]Item(nil), rItems...)
	s := append([]Item(nil), sItems...)
	sortByLen(r)
	sortByLen(s)
	ix := NewIndex(opts)
	ri := 0
	for _, sv := range s {
		_, hi := ix.th.LengthBounds(len(sv.Ranks))
		for ri < len(r) && len(r[ri].Ranks) <= hi {
			ix.Add(r[ri])
			ri++
		}
		ix.Probe(sv, emit)
	}
	return ix.Stats()
}

func sortByLen(items []Item) {
	sort.Slice(items, func(i, j int) bool {
		if len(items[i].Ranks) != len(items[j].Ranks) {
			return len(items[i].Ranks) < len(items[j].Ranks)
		}
		return items[i].RID < items[j].RID
	})
}
