// Package ppjoin implements the single-node set-similarity join kernels
// that Stage 2 reducers run: the PPJoin/PPJoin+ inverted-index algorithm
// of Xiao et al. (WWW 2008) — the paper's "PK" kernel and the
// state-of-the-art baseline it builds on — the nested-loop kernel with
// the same filter stack (the paper's "BK"), and a brute-force reference
// join used as the test oracle.
//
// Items are record projections: an RID and the join attribute's token
// ranks sorted rarest-first. A PK Stream joins one relation (a self-join)
// or two (R-S), one Index each, over items that arrive in one
// non-decreasing length order (the Stage 2 secondary sort guarantees it),
// and exploits that order twice: an item is indexed under its short index
// prefix only, and entries the length filter proves useless are evicted —
// the memory optimization §3.2.2 and §4 of the reproduction target
// describe.
package ppjoin

import (
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

	// sig memoizes the bitmap-filter signature: built on first use (by
	// Block.Add up front) so an item probed by a stream of later items
	// folds its ranks only once. Kernels run single-threaded per reduce
	// group, so the lazy fill is race-free.
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

// Add adds o's counts to s.
func (s *Stats) Add(o Stats) {
	s.Candidates += o.Candidates
	s.BitmapRejected += o.BitmapRejected
	s.Verified += o.Verified
	s.Results += o.Results
}

// entry is one posting: an indexed item, inline so that a probe reads
// the item where it walks, and the position of the list's token in it.
type entry struct {
	Item
	pos int32
}

// postingList is one token's posting list in stream order (so in length
// order): entries[head:] are live, the ones before were evicted.
type postingList struct {
	tok     uint32
	head    int
	entries []entry
}

// posted is the eviction record of one indexed item: its length and the
// number of lists it is posted in, their slab ids next in Index.posts.
type posted struct {
	length, lists int32
}

// Index is the PK index of one relation: one posting list per token the
// owner rule grants, holding in stream order the items with the token in
// their index prefix. Items arrive in non-decreasing length order, across
// Add and the probes of a Stream. One Index serves many streams (a reduce
// task's groups): Reset empties it and keeps its storage, so a warm
// stream of small groups costs no allocation.
type Index struct {
	opts  Options
	th    simfn.Threshold     // opts.Fn at opts.Threshold, rationalized once
	owner func(w uint32) bool // the emit-once hook, set by Reset
	// Posting lists live in slab, reached through lists (token → slab
	// id). The map is only written when a token gains its first entry or
	// loses its last. slab[:used] have been handed out since the last
	// Reset; free holds the ids among them whose list eviction emptied,
	// reused before the slab grows. slabCap is the summed capacity of
	// every list in the slab, the measure Reset caps retention by.
	lists   map[uint32]int32
	slab    []postingList
	used    int
	free    []int32
	slabCap int
	// The eviction queue: the indexed items in stream order,
	// fifo[fhead:] live, and the slab ids of their lists, posts[phead:].
	fifo         []posted
	posts        []int32
	fhead, phead int
	// kept and gone count the items indexed and evicted since Reset:
	// stream positions of the rank chunks Add copies ranks into.
	kept, gone int
	rankChunks
	// at is the stream length the index last advanced to: p is its
	// prefix length, q its index prefix and lo the lower bound of its
	// length window (0 without the length filter).
	at, p, q, lo int
	bytes        int64
	stats        Stats
	need         simfn.NeedTable
}

// NewIndex creates an empty streaming index.
func NewIndex(opts Options) *Index {
	return &Index{opts: opts, th: opts.Fn.At(opts.Threshold), lists: make(map[uint32]int32)}
}

// Retention caps: what Reset keeps for the next stream. Storage one
// pathological stream (a hot token shared by thousands of items) grew
// past them is dropped instead, so a reused Index holds on to at most
// about 1 MB however large its largest stream was.
const (
	maxRetainedItems   = 1 << 12 // eviction records (and Block's buffer)
	maxRetainedLists   = 1 << 12 // slab lists and token-map entries
	maxRetainedEntries = 1 << 12 // summed posting-list capacity, 80 B an entry
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

// trim drops a queue's consumed front q[:head] once it is at least half
// of q: a queue then holds fewer than twice its live elements, and each
// element is moved O(1) times amortized.
func trim[T any](q []T, head int) ([]T, int) {
	if head == 0 || 2*head < len(q) {
		return q, head
	}
	n := copy(q, q[head:])
	clear(q[n:])
	return q[:n], 0
}

// Reset empties the index for a new stream, keeping its storage up to the
// retention caps; a reset index behaves as a new one (pairs, order, Stats,
// Bytes). owner is the emit-once hook (nil: every token): the index posts
// and probes under the tokens it accepts only, and a pair is reported from
// the list of its minimal common prefix token alone. Both items of a
// τ-pair are routed to that token's group, so with owner = "this reduce
// group's tokens" each pair is emitted by exactly one group.
func (ix *Index) Reset(owner func(w uint32) bool) {
	ix.owner = owner
	ix.release(ix.kept)
	if ix.used > maxRetainedLists || ix.slabCap > maxRetainedEntries {
		// Maps do not shrink and clearing one costs its peak size: a
		// stream with many lists would tax every later Reset.
		ix.lists = make(map[uint32]int32)
		ix.slab, ix.free, ix.slabCap = nil, nil, 0
	} else {
		clear(ix.lists)
		for i := range ix.slab[:ix.used] {
			l := &ix.slab[i]
			clear(l.entries) // let go of the stream's rank storage
			l.entries, l.head = l.entries[:0], 0
		}
		ix.free = ix.free[:0]
	}
	ix.used = 0
	ix.fifo, ix.posts = ix.fifo[:0], ix.posts[:0]
	if cap(ix.fifo) > maxRetainedItems || cap(ix.posts) > maxRetainedEntries {
		ix.fifo, ix.posts, ix.chunks = nil, nil, nil
	}
	ix.fhead, ix.phead, ix.kept, ix.gone = 0, 0, 0, 0
	ix.at, ix.p, ix.q, ix.lo, ix.bytes, ix.stats = 0, 0, 0, 0, 0, Stats{}
}

// Stats returns the kernel work counters accumulated so far.
func (ix *Index) Stats() Stats { return ix.stats }

// Bytes estimates the index's live memory footprint: rank storage plus
// posting entries for non-evicted items.
func (ix *Index) Bytes() int64 { return ix.bytes }

// itemBytes estimates the footprint of one item of l ranks posted in
// lists lists.
func itemBytes(l, lists int) int64 {
	return int64(16 + 4*l + 16*lists)
}

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

// advance moves the index to the stream position of an item of l tokens.
// What depends on the length alone is computed once per length, not per
// item. With the length filter, every indexed item below the new length
// window is evicted: later items are at least as long, so none of them
// can pair with it.
func (ix *Index) advance(l int) {
	if l == ix.at {
		return
	}
	ix.at, ix.p, ix.q = l, ix.th.PrefixLength(l), indexPrefix(ix.th, l)
	if ix.opts.Filters.Length {
		ix.lo, _ = ix.th.LengthBounds(l)
		ix.evictBelow(ix.lo)
	}
}

// evictBelow drops every indexed item shorter than minLen from its lists
// and releases its rank chunks as those empty. The eviction queue names
// the lists, so a list no later probe walks is trimmed too.
func (ix *Index) evictBelow(minLen int) {
	for ix.fhead < len(ix.fifo) && int(ix.fifo[ix.fhead].length) < minLen {
		p := ix.fifo[ix.fhead]
		for _, id := range ix.posts[ix.phead : ix.phead+int(p.lists)] {
			ix.evictShort(id, minLen)
		}
		ix.phead += int(p.lists)
		ix.fhead++
		ix.gone++
		ix.bytes -= itemBytes(int(p.length), int(p.lists))
	}
	ix.fifo, ix.fhead = trim(ix.fifo, ix.fhead)
	ix.posts, ix.phead = trim(ix.posts, ix.phead)
	ix.release(ix.gone)
}

// evictShort drops list id's entries shorter than minLen, its head (lists
// are in length order). A walk may have pruned the evicted item's entry,
// freed the list and handed it to another token: entries shorter than
// minLen are dead under any token, and a list with none is left alone.
func (ix *Index) evictShort(id int32, minLen int) {
	l := &ix.slab[id]
	h := l.head
	for ; h < len(l.entries) && len(l.entries[h].Ranks) < minLen; h++ {
		l.entries[h] = entry{} // let go of the ranks
	}
	if h > l.head && h == len(l.entries) {
		ix.freeList(id)
	} else {
		l.entries, l.head = trim(l.entries, h)
	}
}

// freeList returns emptied list id to the free list.
func (ix *Index) freeList(id int32) {
	l := &ix.slab[id]
	delete(ix.lists, l.tok)
	l.entries, l.head = l.entries[:0], 0
	ix.free = append(ix.free, id)
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
			ix.slab = append(ix.slab, postingList{})
		}
		id = int32(ix.used)
		ix.used++
	}
	ix.slab[id].tok = w
	ix.lists[w] = id
	return id
}

// Add posts x under the tokens of its index prefix that the owner rule
// accepts; an item with none is not indexed. The index keeps a copy of
// x's ranks: the caller may reuse them once Add returns.
func (ix *Index) Add(x Item) {
	l := len(x.Ranks)
	ix.advance(l)
	k := 0
	for i, w := range x.Ranks[:ix.q] {
		if ix.owner != nil && !ix.owner(w) {
			continue
		}
		if k == 0 {
			x.Ranks = ix.keep(x.Ranks, ix.kept)
			ix.kept++
		}
		k++
		id := ix.listFor(w)
		pl := &ix.slab[id]
		c := cap(pl.entries)
		pl.entries = append(pl.entries, entry{Item: x, pos: int32(i)})
		ix.slabCap += cap(pl.entries) - c
		ix.posts = append(ix.posts, id)
	}
	if k > 0 {
		ix.fifo = append(ix.fifo, posted{length: int32(l), lists: int32(k)})
		ix.bytes += itemBytes(l, k)
	}
}

// order says how a probe orients the pairs it emits.
type order uint8

const (
	indexedFirst order = iota // (indexed RID, probe RID)
	probeFirst                // (probe RID, indexed RID)
	ascending                 // smaller RID first: a self-join pair
)

// probe walks the list of every granted token of x's prefix.
func (ix *Index) probe(x *Item, o order, emit func(records.RIDPair)) {
	ix.advance(len(x.Ranks))
	for i, w := range x.Ranks[:ix.p] {
		if ix.owner != nil && !ix.owner(w) {
			continue
		}
		if id, ok := ix.lists[w]; ok {
			ix.walk(x, i, id, o, emit)
		}
	}
}

// walk checks x against the live entries of list id, its i-th token's;
// each is a candidate. Of an entry y at position j it applies, in order:
// the positional bound 1 + min(lx − i − 1, ly − j − 1) ≥ need (exact when
// no earlier token is common, the only case that reaches the merge), y's
// side first; the owner rule (x[:i] and y[:j] share no token); the bitmap
// filter, ahead of the costlier suffix filter; the merge. An entry that
// fails y's side, ly − j < need(lx, ly), fails it for every later probe,
// as long or longer (need does not decrease in lx), so walk drops it,
// compacting the list in place and in order (MPJoin's index pruning), and
// frees a list it empties.
func (ix *Index) walk(x *Item, i int, id int32, o order, emit func(records.RIDPair)) {
	pl := &ix.slab[id]
	live := pl.entries[pl.head:]
	lx, lo, fs := len(x.Ranks), ix.lo, ix.opts.Filters
	ix.stats.Candidates += int64(len(live))
	n := 0
	for k := range live {
		ly, j := len(live[k].Ranks), int(live[k].pos)
		need := ix.need.Need(ix.th, lx, lo, ly)
		if fs.Positional && ly-j < need {
			continue
		}
		if n != k {
			live[n] = live[k]
		}
		e := &live[n]
		n++
		if fs.Positional && lx-i < need {
			continue
		}
		if _, _, shared := firstPrefixMatch(x.Ranks, e.Ranks, i, j); shared {
			continue // an earlier common token's list owns the pair
		}
		if !ix.stats.Admit(lx, ly, x.Sig(), e.Sig(), need) {
			continue
		}
		if fs.Suffix && !filter.Suffix(x.Ranks, e.Ranks, i, j, need) {
			continue
		}
		if sim, ok := ix.stats.Merge(ix.opts.Fn, x, &e.Item, need); ok {
			a, b := e.RID, x.RID
			if o == probeFirst || o == ascending && b < a {
				a, b = b, a
			}
			emit(records.RIDPair{A: a, B: b, Sim: sim})
		}
	}
	clear(live[n:]) // let go of the pruned entries' ranks
	if pl.entries = pl.entries[:pl.head+n]; n == 0 {
		ix.freeList(id)
	}
}

// Stream is the PK join of one relation (a self-join) or two (R-S:
// relation 0 is R, 1 is S), one Index each, over items in one
// non-decreasing length order. Each item probes the other relation's
// index (its own in a self-join), then joins its own, so a τ-pair is found
// by its later member in the index of the shorter one. Pairs leave
// smaller RID first in a self-join, as (R RID, S RID) in an R-S join.
type Stream struct {
	ix    []*Index
	order []order // per relation: how its items' probes orient pairs
}

// NewStream returns the join of one relation (relations 1) or two (2).
func NewStream(opts Options, relations int) *Stream {
	if relations == 1 {
		return &Stream{ix: []*Index{NewIndex(opts)}, order: []order{ascending}}
	}
	return &Stream{ix: []*Index{NewIndex(opts), NewIndex(opts)}, order: []order{probeFirst, indexedFirst}}
}

// Reset empties every index for a new stream under the owner rule (see
// Index.Reset).
func (s *Stream) Reset(owner func(w uint32) bool) {
	for _, ix := range s.ix {
		ix.Reset(owner)
	}
}

// Next joins x, the stream's next item, of relation rel.
func (s *Stream) Next(rel int, x Item, emit func(records.RIDPair)) {
	s.ix[len(s.ix)-1-rel].probe(&x, s.order[rel], emit)
	s.ix[rel].Add(x)
}

// Stats sums the indexes' work counters.
func (s *Stream) Stats() Stats {
	var st Stats
	for _, ix := range s.ix {
		st.Add(ix.Stats())
	}
	return st
}

// Bytes sums the indexes' footprints.
func (s *Stream) Bytes() int64 {
	var b int64
	for _, ix := range s.ix {
		b += ix.Bytes()
	}
	return b
}

// SelfJoin runs the full single-node PPJoin+ self-join: items are sorted
// by length and streamed through a one-relation Stream. Pairs are
// emitted smaller RID first; each similar pair is emitted exactly once.
func SelfJoin(items []Item, opts Options, emit func(records.RIDPair)) Stats {
	sorted := append([]Item(nil), items...)
	sortByLen(sorted)
	s := NewStream(opts, 1)
	for _, it := range sorted {
		s.Next(0, it, emit)
	}
	return s.Stats()
}

// RSJoin runs the full single-node PPJoin+ R-S join: both relations are
// sorted by length and merged into one stream. Pairs are (R RID, S RID).
func RSJoin(rItems, sItems []Item, opts Options, emit func(records.RIDPair)) Stats {
	r := append([]Item(nil), rItems...)
	s := append([]Item(nil), sItems...)
	sortByLen(r)
	sortByLen(s)
	st := NewStream(opts, 2)
	mergeByLen(r, s, func(rel int, x Item) { st.Next(rel, x, emit) })
	return st.Stats()
}

// mergeByLen passes the items of two length-sorted relations to next in
// one length order, R (relation 0) first among equal lengths as the
// Stage 2 key sorts them.
func mergeByLen(r, s []Item, next func(rel int, x Item)) {
	for len(r) > 0 || len(s) > 0 {
		if len(s) == 0 || len(r) > 0 && len(r[0].Ranks) <= len(s[0].Ranks) {
			next(0, r[0])
			r = r[1:]
		} else {
			next(1, s[0])
			s = s[1:]
		}
	}
}

func sortByLen(items []Item) {
	sort.Slice(items, func(i, j int) bool {
		if len(items[i].Ranks) != len(items[j].Ranks) {
			return len(items[i].Ranks) < len(items[j].Ranks)
		}
		return items[i].RID < items[j].RID
	})
}
