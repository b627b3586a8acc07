// Package fvt implements the Filter-and-Verification Tree: a
// candidate-free Stage 2 kernel (FVT, after arXiv 2506.03893) that
// builds a prefix tree over the prefix tokens of one relation and
// verifies pairs *during traversal* — no candidate-pair list is ever
// materialized, unlike the BK and PK kernels which both enumerate
// candidates before verification.
//
// Tree layout. Each item's prefix (the first PrefixLength ranks under
// the global token order) is inserted as a root-to-node path; node
// children are keyed by token rank and kept sorted, so every
// root-to-node path is a strictly increasing rank sequence. Every node
// summarizes its whole subtree with three admissible bounds that let a
// probe discard the subtree without visiting it:
//
//   - [minLen, maxLen]: the token-set length range of subtree items,
//     pruned against the probe's LengthBounds window;
//   - size: the subtree item count, credited to the
//     CandidatesAvoided counter when the subtree is pruned;
//   - sig: the bitwise OR of the subtree items' 256-bit bitmap
//     signatures (internal/bitsig). For a probe x and any subtree item
//     y, every bit of sig(x) &^ sig witnesses ≥1 element of x∖y —
//     the bit is set by some token of x and by no token of any subtree
//     item — so popcount(sig(x) &^ sig) ≤ |x∖y| elements of x are
//     missing from y and |x∩y| ≤ |x| − popcount(sig(x) &^ sig). If
//     that ceiling is below the overlap needed at the subtree's
//     *smallest* length (OverlapThreshold is nondecreasing in the
//     partner length for Jaccard, Cosine, and Dice), no subtree item
//     can reach τ.
//
// Traversal. A probe descends with its own prefix q; at each node it
// advances a pointer into q past ranks smaller than the child token
// (both sequences ascend). A child whose token matches q records the
// match positions (fI in x, fJ in y): because path tokens and q both
// strictly increase, the first match found during descent is the
// minimal common prefix token — exactly what firstPrefixMatch finds —
// which is the precondition the positional and suffix filters require.
// Items at unmatched nodes, and whole subtrees that can no longer
// match any q token, fail the prefix filter and are skipped. Surviving
// items go straight through the per-pair filter stack (length,
// positional, suffix) into the verification tail (ppjoin.Tail.Verify:
// bitmap admissibility, then the merge). BK and PK run the same two
// steps, Tail.Admit and Tail.Merge, but test the bitmap earlier: BK
// after the length filter, PK ahead of the suffix filter.
//
// The build path is incremental: Add accepts items in any order,
// including arrival order where later items carry previously unseen
// (strictly larger) tail-extended token ranks.
package fvt

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"

	"fuzzyjoin/internal/bitsig"
	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
)

// Options configures a tree: the kernels' options. Filters selects the
// optional per-pair filters (length, positional, suffix); the prefix
// filter is the tree itself.
type Options = ppjoin.Options

// Stats counts the work one tree performed across all probes.
type Stats struct {
	// NodesVisited is the number of tree nodes descended into.
	NodesVisited int64
	// CandidatesAvoided counts items that a BK-style kernel would have
	// materialized as candidates but the tree discarded — by subtree
	// pruning (length or bitmap bound, credited with the subtree size),
	// by the prefix filter (items at or below unmatched nodes), or by a
	// per-pair filter. Owner-rule and self-join RID-order skips are not
	// counted: those pairs are someone else's to report.
	CandidatesAvoided int64
	// Tail's BitmapRejected pairs are a subset of the avoided work,
	// counted apart as in the BK/PK stats.
	ppjoin.Tail
}

// node is one tree node; the zero value is the root (no token).
type node struct {
	token    uint32
	children []int32 // indices into Tree.nodes, ascending by token
	items    []int32 // indices into Tree.items whose prefix path ends here
	minLen   int32   // min token-set length over the subtree's items
	maxLen   int32   // max token-set length over the subtree's items
	size     int32   // number of items in the subtree
	sig      bitsig.Sig
}

// nodeBytes approximates the heap footprint of one node for memory
// accounting (struct + child/item slice headroom).
const nodeBytes = 112

// Tree is a Filter-and-Verification Tree over one relation. Not safe
// for concurrent use. One Tree serves many independent relations (a
// reduce task's groups): Reset empties it and keeps its storage.
type Tree struct {
	opts  Options
	th    simfn.Threshold     // opts.Fn at opts.Threshold, rationalized once
	owner func(w uint32) bool // the emit-once hook, set by Reset
	nodes []node              // nodes[0] is the root
	items []ppjoin.Item
	// refCap is the summed capacity of the children and items slices of
	// every node in the slab (used or waiting to be recycled), the
	// measure Reset caps retention by.
	refCap int
	need   simfn.NeedTable
	stats  Stats
	bytes  int64
}

// New returns an empty tree.
func New(opts Options) *Tree {
	return &Tree{opts: opts, th: opts.Fn.At(opts.Threshold), nodes: make([]node, 1)}
}

// Retention caps: what Reset keeps for the next relation. Storage one
// pathological relation grew past them is dropped instead, so a reused
// Tree holds on to at most about 1 MB.
const (
	maxRetainedNodes = 1 << 12 // node slab
	maxRetainedItems = 1 << 12 // item copies
	maxRetainedRefs  = 1 << 16 // summed children/items capacity
)

// Reset empties the tree for a new relation under the same options. The
// node slab and each recycled node's children/items capacity are kept up
// to the retention caps. A reset tree is indistinguishable from a new
// one: same pairs in the same order, same Stats, same Bytes.
//
// owner, when non-nil, is the emit-once hook for partitioned execution (the
// rule is per reduce group, see ppjoin.Index.Reset): a pair is verified
// and emitted only if owner accepts its minimal common prefix token.
func (t *Tree) Reset(owner func(w uint32) bool) {
	t.owner = owner
	clear(t.items) // let go of the relation's rank slices
	t.items = t.items[:0]
	if cap(t.items) > maxRetainedItems {
		t.items = nil
	}
	if cap(t.nodes) > maxRetainedNodes || t.refCap > maxRetainedRefs {
		t.nodes, t.refCap = make([]node, 1), 0
	} else {
		t.nodes = t.nodes[:0]
		t.newNode(0)
	}
	t.stats = Stats{}
	t.bytes = 0
}

// newNode appends an empty node for tok, recycling the children and
// items storage of the node that occupied the slab slot before a Reset.
func (t *Tree) newNode(tok uint32) int32 {
	c := len(t.nodes)
	if c == cap(t.nodes) {
		t.nodes = append(t.nodes, node{token: tok})
		return int32(c)
	}
	t.nodes = t.nodes[:c+1]
	nd := &t.nodes[c]
	*nd = node{token: tok, children: nd.children[:0], items: nd.items[:0]}
	return int32(c)
}

// Len reports the number of indexed items.
func (t *Tree) Len() int { return len(t.items) }

// Stats returns the accumulated probe statistics.
func (t *Tree) Stats() Stats { return t.stats }

// Bytes estimates the tree's heap footprint for memory accounting.
func (t *Tree) Bytes() int64 { return t.bytes }

// Add inserts one item. Any insertion order is supported — including
// arrival order with tail-extended token ranks — and the result set of
// subsequent probes does not depend on it.
func (t *Tree) Add(it ppjoin.Item) {
	p := t.th.PrefixLength(len(it.Ranks))
	if p == 0 {
		// An empty prefix means the item cannot reach τ against
		// anything (only possible for an empty token set at τ > 0).
		return
	}
	idx := int32(len(t.items))
	t.items = append(t.items, it)
	t.bytes += int64(64 + 4*len(it.Ranks))
	sig := t.items[idx].Sig()
	l := int32(len(it.Ranks))
	n := int32(0)
	t.touch(n, l, sig)
	for d := 0; d < p; d++ {
		n = t.child(n, it.Ranks[d])
		t.touch(n, l, sig)
	}
	nd := &t.nodes[n]
	c := cap(nd.items)
	nd.items = append(nd.items, idx)
	t.refCap += cap(nd.items) - c
	t.bytes += 4
}

// touch folds one new subtree member into a path node's summaries.
func (t *Tree) touch(n int32, l int32, sig bitsig.Sig) {
	nd := &t.nodes[n]
	if nd.size == 0 || l < nd.minLen {
		nd.minLen = l
	}
	if l > nd.maxLen {
		nd.maxLen = l
	}
	nd.size++
	for i := range nd.sig {
		nd.sig[i] |= sig[i]
	}
}

// child returns n's child keyed by tok, creating it in sorted position
// if absent.
func (t *Tree) child(n int32, tok uint32) int32 {
	kids := t.nodes[n].children
	k := sort.Search(len(kids), func(i int) bool { return t.nodes[kids[i]].token >= tok })
	if k < len(kids) && t.nodes[kids[k]].token == tok {
		return kids[k]
	}
	c := t.newNode(tok)
	t.bytes += nodeBytes
	nd := &t.nodes[n] // re-take: newNode may have moved t.nodes
	kc := cap(nd.children)
	nd.children = append(nd.children, 0)
	t.refCap += cap(nd.children) - kc
	copy(nd.children[k+1:], nd.children[k:])
	nd.children[k] = c
	return c
}

// Probe finds every indexed item within τ of x and emits
// {A: indexed RID, B: x's RID, Sim}. Pairs are emitted in no
// particular order.
func (t *Tree) Probe(x ppjoin.Item, emit func(records.RIDPair)) {
	t.probe(&x, nil, emit)
}

// SelfProbe is Probe restricted to indexed items with RID strictly
// below x's, so probing every item of a fully built tree reports each
// unordered pair exactly once, already normalized A < B.
func (t *Tree) SelfProbe(x ppjoin.Item, emit func(records.RIDPair)) {
	rid := x.RID
	t.probe(&x, func(y *ppjoin.Item) bool { return y.RID >= rid }, emit)
}

type prober struct {
	t      *Tree
	x      *ppjoin.Item
	q      []uint32 // x's prefix
	lx, px int
	lo, hi int // LengthBounds window (0, MaxInt when disabled)
	sx     bitsig.Sig
	skip   func(y *ppjoin.Item) bool
	emit   func(records.RIDPair)
}

func (t *Tree) probe(x *ppjoin.Item, skip func(*ppjoin.Item) bool, emit func(records.RIDPair)) {
	lx := len(x.Ranks)
	if len(t.items) == 0 {
		return
	}
	px := t.th.PrefixLength(lx)
	if px == 0 {
		return
	}
	pr := prober{t: t, x: x, q: x.Ranks[:px], lx: lx, px: px,
		lo: 0, hi: math.MaxInt, sx: x.Sig(), skip: skip, emit: emit}
	if t.opts.Filters.Length {
		pr.lo, pr.hi = t.th.LengthBounds(lx)
	}
	pr.visit(0, 0, -1, -1, -1)
}

// visit descends into node n. s is the first q index that could still
// match a deeper token; fI/fJ are the first-match positions in x and y
// (-1 while unmatched); jpos is n's depth (its token's position in any
// subtree item's ranks), -1 at the root.
func (pr *prober) visit(n int32, s, fI, fJ, jpos int) {
	t := pr.t
	t.stats.NodesVisited++
	nd := &t.nodes[n]
	matched := fI >= 0
	if len(nd.items) > 0 {
		if matched {
			pr.checkItems(nd.items, fI, fJ)
		} else {
			// These items' whole prefix is the path to n, which shares
			// no token with q: the prefix filter discards them.
			t.stats.CandidatesAvoided += int64(len(nd.items))
		}
	}
	for ci, c := range nd.children {
		ch := &t.nodes[c]
		s2, fI2, fJ2 := s, fI, fJ
		if !matched {
			for s2 < pr.px && pr.q[s2] < ch.token {
				s2++
			}
			if s2 == pr.px {
				// Every remaining q token is below ch.token, and later
				// siblings only ascend: nothing below here (or any
				// later sibling) can ever match q — the prefix filter
				// discards the whole remainder.
				for _, rest := range nd.children[ci:] {
					t.stats.CandidatesAvoided += int64(t.nodes[rest].size)
				}
				return
			}
			s = s2 // siblings ascend, so the advance carries over
			if pr.q[s2] == ch.token {
				fI2, fJ2 = s2, jpos+1
				s2++
			}
		}
		// Subtree length prune: no item in ch's subtree lies in x's
		// length window.
		if int(ch.maxLen) < pr.lo || int(ch.minLen) > pr.hi {
			t.stats.CandidatesAvoided += int64(ch.size)
			continue
		}
		// Subtree bitmap gate (see the package comment for the
		// admissibility argument): |x∩y| ≤ lx − popcount(sx &^ ch.sig)
		// for every subtree item y, and the overlap needed is smallest
		// at the subtree's smallest partner length.
		if h := andNotCount(pr.sx, ch.sig); h > 0 {
			lyMin := int(ch.minLen)
			if pr.lo > lyMin {
				lyMin = pr.lo
			}
			if pr.lx-h < t.need.Need(t.th, pr.lx, pr.lo, lyMin) {
				t.stats.CandidatesAvoided += int64(ch.size)
				continue
			}
		}
		pr.visit(c, s2, fI2, fJ2, jpos+1)
	}
}

// checkItems runs the per-pair pipeline for the items anchored at a
// matched node: owner gate, length, positional, suffix, then the shared
// verification tail. fI/fJ are the first-match positions established
// during descent.
func (pr *prober) checkItems(items []int32, fI, fJ int) {
	t := pr.t
	if t.owner != nil && !t.owner(pr.q[fI]) {
		// Another group owns the minimal common prefix token; that
		// group verifies and emits these pairs (emit-once).
		return
	}
	for _, yi := range items {
		y := &t.items[yi]
		if pr.skip != nil && pr.skip(y) {
			continue
		}
		ly := len(y.Ranks)
		if t.opts.Filters.Length && (ly < pr.lo || ly > pr.hi) {
			t.stats.CandidatesAvoided++
			continue
		}
		need := t.need.Need(t.th, pr.lx, pr.lo, ly)
		if t.opts.Filters.Positional && !filter.Positional(pr.lx, ly, fI, fJ, 1, need) {
			t.stats.CandidatesAvoided++
			continue
		}
		if t.opts.Filters.Suffix && !filter.Suffix(pr.x.Ranks, y.Ranks, fI, fJ, need) {
			t.stats.CandidatesAvoided++
			continue
		}
		if sim, ok := t.stats.Verify(t.opts.Fn, pr.x, y, pr.sx, need); ok {
			pr.emit(records.RIDPair{A: y.RID, B: pr.x.RID, Sim: sim})
		}
	}
}

// andNotCount returns popcount(x &^ or): the number of signature bits
// set by x's tokens but by no token of the summarized subtree.
func andNotCount(x, or bitsig.Sig) int {
	n := 0
	for i := range x {
		n += bits.OnesCount64(x[i] &^ or[i])
	}
	return n
}

// SortItems orders items by (length, RID) — the deterministic bulk
// build and probe order the Stage 2 reducer uses.
func SortItems(items []ppjoin.Item) {
	slices.SortFunc(items, func(a, b ppjoin.Item) int {
		if c := cmp.Compare(len(a.Ranks), len(b.Ranks)); c != 0 {
			return c
		}
		return cmp.Compare(a.RID, b.RID)
	})
}

// SelfJoinBulk joins items with themselves: build the whole tree, then
// self-probe every item (the RID guard reports each unordered pair
// once, normalized A < B). Returns the probe statistics.
func SelfJoinBulk(items []ppjoin.Item, opts Options, emit func(records.RIDPair)) Stats {
	sorted := append([]ppjoin.Item(nil), items...)
	SortItems(sorted)
	t := New(opts)
	for i := range sorted {
		t.Add(sorted[i])
	}
	for i := range sorted {
		t.SelfProbe(sorted[i], emit)
	}
	return t.Stats()
}

// SelfJoinIncremental joins items with themselves in streaming order:
// each item probes the tree of all earlier arrivals, then inserts
// itself. The pair set is identical to SelfJoinBulk's (each unordered
// pair is seen exactly once, when its later arrival probes), with A < B
// normalization applied on emit.
func SelfJoinIncremental(items []ppjoin.Item, opts Options, emit func(records.RIDPair)) Stats {
	t := New(opts)
	for i := range items {
		t.Probe(items[i], func(p records.RIDPair) {
			if p.A > p.B {
				p.A, p.B = p.B, p.A
			}
			emit(p)
		})
		t.Add(items[i])
	}
	return t.Stats()
}

// RSJoinBulk joins two relations: build the tree over R (sorted bulk
// order), probe every S item. Pairs carry the R-side RID in A.
func RSJoinBulk(rItems, sItems []ppjoin.Item, opts Options, emit func(records.RIDPair)) Stats {
	r := append([]ppjoin.Item(nil), rItems...)
	SortItems(r)
	return rsJoin(r, sItems, opts, emit)
}

// RSJoinIncremental is RSJoinBulk with R inserted in arrival order —
// the tail-extended incremental build path. The pair set is identical.
func RSJoinIncremental(rItems, sItems []ppjoin.Item, opts Options, emit func(records.RIDPair)) Stats {
	return rsJoin(rItems, sItems, opts, emit)
}

func rsJoin(r, s []ppjoin.Item, opts Options, emit func(records.RIDPair)) Stats {
	t := New(opts)
	for i := range r {
		t.Add(r[i])
	}
	for i := range s {
		t.Probe(s[i], emit)
	}
	return t.Stats()
}
