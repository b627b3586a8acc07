package core

// Stage 2, FVT kernel (internal/fvt): reducers build a
// Filter-and-Verification Tree over each reduce group and verify pairs
// during traversal — no candidate pair is ever materialized
// (stage2.candidates_materialized is always 0 for FVT cells).
//
// Routing reuses the plain BK key layouts (see stage2_keys.go). A group
// receives every record whose prefix contains one of its tokens, so a
// τ-pair meets in every group its shared prefix tokens route to; like the
// other kernels the tree emits it from the owning group alone
// (stage2_owner.go), and skips a matched node's items altogether when the
// match token is another group's.

import (
	"fuzzyjoin/internal/fvt"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/ppjoin"
)

func countFVTStats(ctx *mapreduce.Context, st fvt.Stats) {
	ctx.Count("stage2.tree_nodes_visited", st.NodesVisited)
	ctx.Count("stage2.candidates_avoided", st.CandidatesAvoided)
	ctx.Count("stage2.bitmap_rejected", st.BitmapRejected)
	ctx.Count("stage2.verified", st.Verified)
	ctx.Count("stage2.results", st.Results)
	// FVT never materializes a candidate list; counting 0 creates the
	// counter so every cell's traces and metrics carry it.
	ctx.Count("stage2.candidates_materialized", 0)
}

// fvtReducer joins one reduce group through the tree. A self-join group
// is joined with itself; an R-S group builds the tree over its R
// projections (they sort first, rel byte in the key) and probes each S
// projection against it as it streams — like BK, only R must fit in
// memory (§5).
type fvtReducer struct {
	owner
	layout keyLayout

	// The task owns the kernel state, each group resets it: the tree, the
	// buffer of items waiting for the bulk build, and the arena their
	// ranks are decoded into (the tree shares the items' rank storage).
	tree  *fvt.Tree
	items []ppjoin.Item
	ranks rankArena
	// fst sums the task's FVT counters over its groups (the owner's
	// kernelCounts mark that a group ran); Cleanup adds them once.
	fst fvt.Stats
}

func (r *fvtReducer) NewTaskInstance() any {
	return &fvtReducer{owner: r.owner, layout: r.layout, tree: fvt.New(kernelOptions(r.cfg))}
}

func (r *fvtReducer) Reduce(ctx *mapreduce.Context, key []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	r.begin(key, out)
	tree := r.tree
	tree.Reset(r.token)
	r.items = reuseItems(r.items)
	r.ranks.reset()
	var (
		heldItems, heldTree int64
		built               bool
	)
	defer func() { ctx.Memory.Free(heldItems + heldTree) }()
	// build fills the tree from the buffered items in deterministic
	// (length, RID) order and swaps the buffered charge for the tree's own
	// accounting (the tree shares the items' rank storage).
	build := func() error {
		built = true
		fvt.SortItems(r.items)
		for i := range r.items {
			tree.Add(r.items[i])
		}
		if err := ctx.Memory.Alloc(tree.Bytes()); err != nil {
			return err
		}
		heldTree = tree.Bytes()
		ctx.Memory.Free(heldItems)
		heldItems = 0
		return nil
	}
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		_, rel, err := r.layout.classify(values.Key())
		if err != nil {
			return err
		}
		// An S projection only probes: its ranks leave the arena with it.
		mark := len(r.ranks.buf)
		p, err := r.ranks.decode(v)
		if err != nil {
			return err
		}
		it := ppjoin.Item{RID: p.RID, Ranks: p.Ranks}
		if rel == relR {
			b := projectionBytes(p)
			if err := ctx.Memory.Alloc(b); err != nil {
				return err
			}
			heldItems += b
			r.items = append(r.items, it)
			continue
		}
		if !built {
			if err := build(); err != nil {
				return err
			}
		}
		tree.Probe(it, r.pair)
		r.ranks.buf = r.ranks.buf[:mark]
		if r.err != nil {
			return r.err
		}
	}
	if r.self {
		// The whole group is buffered; build, then self-probe every item
		// (the RID guard yields each unordered pair exactly once, already
		// normalized).
		if err := build(); err != nil {
			return err
		}
		for i := range r.items {
			tree.SelfProbe(r.items[i], r.pair)
			if r.err != nil {
				return r.err
			}
		}
	}
	st := tree.Stats()
	r.fst.NodesVisited += st.NodesVisited
	r.fst.CandidatesAvoided += st.CandidatesAvoided
	r.fst.BitmapRejected += st.BitmapRejected
	r.fst.Verified += st.Verified
	r.fst.Results += st.Results
	r.groups = true
	return r.err
}

func (r *fvtReducer) Cleanup(ctx *mapreduce.Context, _ mapreduce.Emitter) error {
	if r.groups {
		countFVTStats(ctx, r.fst)
	}
	return nil
}
