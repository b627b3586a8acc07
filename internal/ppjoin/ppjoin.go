// Package ppjoin implements the single-node set-similarity join kernels
// that Stage 2 reducers run: the PPJoin/PPJoin+ inverted-index algorithm
// of Xiao et al. (WWW 2008) — the paper's "PK" kernel and the
// state-of-the-art baseline it builds on — and its one-list form for a
// single token's reduce group (TokenIndex), plus the nested-loop kernel
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
	"slices"
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
	// Bitmap is ignored; named by bench/ until ROADMAP 8(a)'s benchmark PR.
	Bitmap bool
}

// Stats counts kernel work for the ablation experiments.
type Stats struct {
	// Candidates is the number of candidate pairs considered (after
	// prefix filtering, before the other filters).
	Candidates int64
	Tail
}

// entry is one posting: an indexed item and the position of the list's
// token within that item's prefix.
type entry struct {
	item int32 // index into Index.items
	pos  int32 // token position within the item's prefix
}

// slot is the per-item state the probe loop reads for every posting entry
// it walks, kept in one struct so a candidate costs one cache line rather
// than one per parallel array. gen == Index.curGen marks the item as seen
// by the current probe, with overlap its accumulated prefix overlap, need
// the overlap threshold against the probe and pruned whether a filter
// killed it. indexed is the number of the item's leading tokens that
// have a posting entry.
type slot struct {
	gen     uint32
	overlap int32
	need    int32
	length  int32
	indexed int32
	pruned  bool
	evicted bool // removed by length-filter eviction
}

// Index is a streaming PPJoin+ index for items arriving in
// non-decreasing length order. One Index serves many independent streams
// (a reduce task's groups): Reset empties it and keeps its storage, so a
// warm stream of small groups costs no allocation.
type Index struct {
	opts  Options
	th    simfn.Threshold     // opts.Fn at opts.Threshold, rationalized once
	owner func(w uint32) bool // the emit-once hook, set by Reset
	items []Item
	slots []slot // parallel to items
	// Add copies ranks into chunks in stream order.
	rankChunks
	// Posting lists live in slab, reached through lists (token → slab
	// id). The map is only written when a token gains its first entry or
	// loses its last: probes and compaction rewrite a list through the
	// slab. slab[:used] have been handed out since the last Reset; free
	// holds the ids among them whose list was emptied by eviction, reused
	// before the slab grows. slabCap is the summed capacity of every list
	// in the slab, the measure Reset caps retention by.
	lists   map[uint32]int32
	slab    [][]entry
	used    int
	free    []int32
	slabCap int
	// head is the first item not yet evicted (items sit in length order).
	head  int
	bytes int64
	stats Stats

	// Per-probe scratch: the generation stamp of slot.gen, the surviving
	// candidates, and the current probe length's overlap thresholds by
	// partner length.
	curGen uint32
	cand   []int32
	need   simfn.NeedTable
}

// NewIndex creates an empty streaming index.
func NewIndex(opts Options) *Index {
	return &Index{opts: opts, th: opts.Fn.At(opts.Threshold), lists: make(map[uint32]int32)}
}

// Retention caps: what Reset keeps for the next stream. Storage one
// pathological stream (a hot token shared by thousands of items) grew
// past them is dropped instead, so a reused Index holds on to at most
// about 1.5 MB however large its largest stream was.
const (
	maxRetainedItems   = 1 << 12 // items and slots
	maxRetainedLists   = 1 << 12 // slab lists and token-map entries
	maxRetainedEntries = 1 << 16 // summed posting-list capacity
	maxSpareChunks     = 4       // empty rank chunks (64 KiB)
	chunkRanks         = 1 << 12 // per chunk; a longer item gets a slice of its own
)

// rankChunks is the rank storage of a stream's indexed items: keep copies
// ranks into chunks in stream order, chunks holds those with a live item,
// oldest first, and release empties them onto spare, first-in first-out.
type rankChunks struct {
	chunks []rankChunk
	spare  [][]uint32
}

type rankChunk struct {
	buf []uint32
	end int // one past the stream position of the last item in buf
}

// keep returns a copy of the ranks of the stream's n-th item (0-based).
func (c *rankChunks) keep(ranks []uint32, n int) []uint32 {
	l := len(ranks)
	if l > chunkRanks {
		return slices.Clone(ranks)
	}
	if k := len(c.chunks); k == 0 || len(c.chunks[k-1].buf)+l > chunkRanks {
		if len(c.spare) == 0 {
			c.spare = append(c.spare, make([]uint32, 0, chunkRanks))
		}
		c.chunks = append(c.chunks, rankChunk{buf: c.spare[len(c.spare)-1]})
		c.spare = c.spare[:len(c.spare)-1]
	}
	ch := &c.chunks[len(c.chunks)-1]
	ch.buf, ch.end = append(ch.buf, ranks...), n+1
	return ch.buf[len(ch.buf)-l : len(ch.buf) : len(ch.buf)]
}

// release moves the chunks of the items before stream position head to
// spare, up to its cap.
func (c *rankChunks) release(head int) {
	k := 0
	for ; k < len(c.chunks) && c.chunks[k].end <= head; k++ {
		if len(c.spare) < maxSpareChunks {
			c.spare = append(c.spare, c.chunks[k].buf[:0])
		}
	}
	n := copy(c.chunks, c.chunks[k:])
	clear(c.chunks[n:])
	c.chunks = c.chunks[:n]
}

// Reset empties the index for a new stream of items under the same
// options, keeping its storage up to the retention caps. A reset index
// is indistinguishable from a new one: same pairs in the same order,
// same Stats, same Bytes trajectory.
//
// owner, when non-nil, is the emit-once hook for partitioned execution: a
// pair is filtered, verified and emitted only if owner accepts the pair's
// minimal common prefix token. Both sides of a τ-pair are replicated to
// that token's group (it is in both prefixes), so with owner = "this
// reduce group's tokens" each pair is emitted by exactly one group and the
// union over groups is the full result. Non-owned pairs still count as
// Candidates: they were met here, and are someone else's to report.
func (ix *Index) Reset(owner func(w uint32) bool) {
	ix.owner = owner
	ix.release(len(ix.items))
	clear(ix.items) // let go of the stream's rank storage
	ix.items = ix.items[:0]
	ix.slots = ix.slots[:0]
	if cap(ix.items) > maxRetainedItems {
		ix.items, ix.slots, ix.chunks = nil, nil, nil
	}
	if ix.used > maxRetainedLists || ix.slabCap > maxRetainedEntries {
		// Maps do not shrink and clearing one costs its peak size: a
		// stream with many lists would tax every later Reset.
		ix.lists = make(map[uint32]int32)
		ix.slab, ix.free, ix.slabCap = nil, nil, 0
	} else {
		clear(ix.lists)
		for i := range ix.slab[:ix.used] {
			ix.slab[i] = ix.slab[i][:0]
		}
		ix.free = ix.free[:0]
	}
	ix.used = 0
	ix.head = 0
	ix.bytes = 0
	ix.stats = Stats{}
	ix.curGen = 0
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

// Add indexes an item under its whole prefix without probing (the R side
// of an R-S join: an R item may be longer than the S items that probe it).
// Items must arrive in non-decreasing length order. The index keeps a copy
// of the item's ranks: the caller may reuse them once Add returns.
func (ix *Index) Add(it Item) {
	ix.add(it, ix.th.PrefixLength(len(it.Ranks)))
}

// add indexes it under its first p tokens.
func (ix *Index) add(it Item, p int) {
	idx := int32(len(ix.items))
	it.Ranks = ix.keep(it.Ranks, len(ix.items))
	ix.items = append(ix.items, it)
	ix.slots = append(ix.slots, slot{length: int32(len(it.Ranks)), indexed: int32(p)})
	for i := 0; i < p; i++ {
		id := ix.listFor(it.Ranks[i])
		post := ix.slab[id]
		c := cap(post)
		post = append(post, entry{item: idx, pos: int32(i)})
		ix.slabCap += cap(post) - c
		ix.slab[id] = post
	}
	ix.bytes += itemBytes(it, p)
}

// listFor returns the slab id of token w's posting list, handing out a
// recycled or new empty list on the token's first entry.
func (ix *Index) listFor(w uint32) int32 {
	if id, ok := ix.lists[w]; ok {
		return id
	}
	var id int32
	if n := len(ix.free); n > 0 {
		id, ix.free = ix.free[n-1], ix.free[:n-1]
	} else {
		if ix.used == len(ix.slab) {
			ix.slab = append(ix.slab, nil)
		}
		id = int32(ix.used)
		ix.used++
	}
	ix.lists[w] = id
	return id
}

// evictBelow drops every indexed item shorter than minLen. Streaming
// callers pass the length filter's lower bound for the current probe;
// because lengths arrive non-decreasing, eviction is monotone. Evicted
// items release their rank chunks as those empty, and their posting-list
// entries are compacted away (entries sit in insertion order, so the
// dead entries of a list always form a prefix) — without this, tokens
// the remaining stream never probes would hold their entries forever.
func (ix *Index) evictBelow(minLen int) {
	start := ix.head
	for ix.head < len(ix.items) && int(ix.slots[ix.head].length) < minLen {
		if s := &ix.slots[ix.head]; !s.evicted {
			s.evicted = true
			ix.bytes -= itemBytes(ix.items[ix.head], int(s.indexed))
		}
		ix.head++
	}
	for i := start; i < ix.head; i++ {
		it := &ix.items[i]
		if it.Ranks == nil {
			continue
		}
		for _, w := range it.Ranks[:ix.slots[i].indexed] {
			ix.compactPosting(w)
		}
		it.Ranks = nil // the item can never be probed again
	}
	ix.release(ix.head)
}

// compactPosting trims the dead prefix (entries of evicted items) from
// token w's posting list. A fully dead list leaves the token map and its
// slab slot goes back on the free list; partly dead lists are rewritten
// only once the dead prefix reaches half the list, which keeps the trim
// amortized O(1) per entry while bounding retained garbage to the live
// entry count.
func (ix *Index) compactPosting(w uint32) {
	id, ok := ix.lists[w]
	if !ok {
		return
	}
	post := ix.slab[id]
	k := sort.Search(len(post), func(i int) bool { return int(post[i].item) >= ix.head })
	switch {
	case k == 0:
	case k == len(post):
		delete(ix.lists, w)
		ix.slab[id] = post[:0]
		ix.free = append(ix.free, id)
	case 2*k >= len(post):
		ix.slab[id] = append(post[:0], post[k:]...)
	}
}

// postingEntries reports the posting index's list and entry counts — the
// test hook for the eviction-compaction invariant (retained entries stay
// proportional to live items, even for tokens no later probe touches).
func (ix *Index) postingEntries() (lists, entries int) {
	for _, id := range ix.lists {
		lists++
		entries += len(ix.slab[id])
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

	ix.curGen++
	ix.cand = ix.cand[:0]

	for i := 0; i < p; i++ {
		id, ok := ix.lists[x.Ranks[i]]
		if !ok {
			continue
		}
		// Probe tokens ascend, so the list a τ-pair is first met in is that
		// of its minimal common prefix token, which lies within the indexed
		// item's indexed tokens: the owner rule is evaluated once per list
		// and applied at first sight.
		owned := ix.owner == nil || ix.owner(x.Ranks[i])
		post := ix.slab[id]
		live := post[:0]
		for _, e := range post {
			s := &ix.slots[e.item]
			if s.evicted {
				continue // compact lazily
			}
			live = append(live, e)
			seen := s.gen == ix.curGen
			if seen && s.pruned {
				continue
			}
			ly := int(s.length)
			var a, need int
			if seen {
				a = int(s.overlap)
				need = int(s.need)
			} else {
				s.gen = ix.curGen
				s.overlap = 0
				s.pruned = false
				ix.stats.Candidates++
				if !owned || ly < lo || ly > hi {
					s.pruned = true
					continue
				}
				need = ix.need.Need(ix.th, lx, lo, ly)
				s.need = int32(need)
			}
			if ix.opts.Filters.Positional && !filter.Positional(lx, ly, i, int(e.pos), a+1, need) {
				s.pruned = true
				continue
			}
			if !seen && ix.opts.Filters.Suffix && !filter.Suffix(x.Ranks, ix.items[e.item].Ranks, i, int(e.pos), need) {
				s.pruned = true
				continue
			}
			if !seen {
				ix.cand = append(ix.cand, e.item)
			}
			s.overlap = int32(a + 1)
		}
		ix.slab[id] = live
	}

	// Verify surviving candidates in index order for deterministic
	// output. x.Sig() memoizes in this call's copy of x, so the probe's
	// signature is built when the first candidate gets here: most probes
	// have none.
	cand := ix.cand
	slices.Sort(cand)
	for _, c := range cand {
		s := &ix.slots[c]
		if s.pruned {
			continue
		}
		y := &ix.items[c]
		if sim, ok := ix.stats.Verify(ix.opts.Fn, &x, y, x.Sig(), int(s.need)); ok {
			emit(records.RIDPair{A: y.RID, B: x.RID, Sim: sim})
		}
	}

	// Release outsized candidate scratch: the slice's capacity tracks the
	// largest candidate set any probe ever produced, so without this cap a
	// single pathological probe (one hot token shared with every indexed
	// item) pins that worst-case allocation for the index's lifetime.
	if cap(ix.cand) > maxCandScratch {
		ix.cand = nil
	}
}

// maxCandScratch bounds the probe candidate-scratch capacity retained
// between probes (entries, i.e. 16 KiB of int32s). Typical probes stay far
// below it; a larger candidate set simply reallocates for that probe.
const maxCandScratch = 1 << 12

// indexPrefix is PPJoin's index prefix for an item of l tokens: its first
// l − OverlapThreshold(l, l) + 1 tokens, clamped to [1, PrefixLength(l)].
// When items stream in non-decreasing length, a τ-pair's earlier member y
// is the shorter one, its partner needs overlap at least
// OverlapThreshold(ly, ly) with it (for Jaccard, cosine and Dice alike),
// and so the pair's first common token lies within y's index prefix.
// Returns 0 for an empty item.
func indexPrefix(th simfn.Threshold, l int) int {
	if l == 0 {
		return 0
	}
	return min(max(l-th.OverlapThreshold(l, l)+1, 1), th.PrefixLength(l))
}

// ProbeAndAdd probes with x and then indexes it under its index prefix —
// the self-join streaming step: every later probe is at least as long as
// x, so a τ-pair of x and a later item first shares a token within x's
// index prefix, and Probe meets the pair first in that token's list.
// Emitted pairs are normalized to A < B by RID (the self-join pair
// convention: Stage 3 groups the two record halves of a pair by it).
func (ix *Index) ProbeAndAdd(x Item, emit func(pair records.RIDPair)) {
	ix.Probe(x, func(p records.RIDPair) {
		if p.A > p.B {
			p.A, p.B = p.B, p.A
		}
		emit(p)
	})
	ix.add(x, indexPrefix(ix.th, len(x.Ranks)))
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
