package core

// Stage 2, FVT kernel (internal/fvt): reducers build a
// Filter-and-Verification Tree over each reduce group and verify pairs
// during traversal — no candidate pair is ever materialized
// (stage2.candidates_materialized is always 0 for FVT cells).
//
// Routing reuses the plain BK key layouts (see stage2_keys.go). Because a
// group receives every record whose prefix contains one of its tokens, a
// τ-pair is replicated to every group its shared prefix tokens route
// to — so without care each pair would be verified and emitted once
// per shared group. The tree's Owner hook makes emission exact-once
// instead: a group only emits pairs whose *minimal* common prefix
// token routes to it. Both sides of such a pair are guaranteed present
// in that group (the minimal common token is in both prefixes), every
// pair has exactly one minimal common token, and so exactly one owner
// group. Stage 3 still dedups, but FVT's Stage 2 output stays
// duplicate-free, which is where its shuffle-byte reduction on skewed
// inputs comes from.

import (
	"encoding/binary"

	"fuzzyjoin/internal/fvt"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/records"
)

func fvtOptions(cfg *Config) fvt.Options {
	return fvt.Options{Fn: cfg.Fn, Threshold: cfg.Threshold,
		Filters: *cfg.Filters, Bitmap: cfg.BitmapFilter}
}

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
	cfg       *Config
	layout    keyLayout
	rs        bool
	tokenFile string
	// numGroups is per-task state: the group→owner mapping of grouped
	// routing needs the same group count the mapper derived.
	numGroups int

	// The task owns the kernel state, each group resets it: the tree, the
	// buffer of items waiting for the bulk build, and the arena their
	// ranks are decoded into (the tree shares the items' rank storage).
	tree  *fvt.Tree
	items []ppjoin.Item
	ranks rankArena
	// group is the current reduce group; owns is the tree's emit-once
	// hook, bound once per task.
	group uint32
	owns  func(uint32) bool
	pairs ridPairOut
}

func (r *fvtReducer) NewTaskInstance() any {
	t := &fvtReducer{cfg: r.cfg, layout: r.layout, rs: r.rs, tokenFile: r.tokenFile,
		tree: fvt.New(fvtOptions(r.cfg))}
	t.owns = t.owner
	return t
}

func (r *fvtReducer) Setup(ctx *mapreduce.Context) error {
	if r.cfg.Routing != GroupedTokens {
		return nil
	}
	r.numGroups = r.cfg.NumGroups
	if r.numGroups >= 1 {
		return nil
	}
	// Mirror stage2Mapper.Setup: with no explicit group count, grouped
	// routing uses one group per distinct token.
	data, err := ctx.SideFile(r.tokenFile)
	if err != nil {
		return err
	}
	if err := ctx.Memory.Alloc(int64(len(data))); err != nil {
		return err
	}
	r.numGroups = loadTokenOrder(data).Len()
	ctx.Memory.Free(int64(len(data))) // only the count is kept; the order is the job's
	if r.numGroups < 1 {
		r.numGroups = 1
	}
	return nil
}

// owner is the emit-once rule for the current reduce group: the group
// owns exactly the tokens the mapper routes to it.
func (r *fvtReducer) owner(w uint32) bool {
	if r.cfg.Routing == GroupedTokens {
		return w%uint32(r.numGroups) == r.group
	}
	return w == r.group
}

func (r *fvtReducer) Reduce(ctx *mapreduce.Context, key []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	r.group = binary.BigEndian.Uint32(key[:4])
	tree := r.tree
	tree.Reset(r.owns)
	r.items = reuseItems(r.items)
	r.ranks.reset()
	var (
		heldItems, heldTree int64
		built               bool
		emitErr             error
	)
	defer func() { ctx.Memory.Free(heldItems + heldTree) }()
	streaming := !r.rs && r.cfg.FVTIncremental
	emit := func(pair records.RIDPair) {
		// Streaming self-join pairs surface in arrival order; every
		// other path already yields the output convention (A < B, or
		// {A: R RID, B: S RID}).
		if streaming && pair.A > pair.B {
			pair.A, pair.B = pair.B, pair.A
		}
		if emitErr == nil {
			emitErr = r.pairs.emit(out, pair)
		}
	}
	// build fills the tree from the buffered items — in deterministic
	// (length, RID) order unless the incremental build is asked for —
	// and swaps the buffered charge for the tree's own accounting (the
	// tree shares the items' rank storage).
	build := func() error {
		built = true
		if !r.cfg.FVTIncremental {
			fvt.SortItems(r.items)
		}
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
		switch {
		case streaming:
			// Probe-then-insert in arrival order — the tail-extended
			// incremental build path.
			tree.Probe(it, emit)
			tree.Add(it)
			if delta := tree.Bytes() - heldTree; delta > 0 {
				if err := ctx.Memory.Alloc(delta); err != nil {
					return err
				}
				heldTree = tree.Bytes()
			}
		case rel == relR:
			b := projectionBytes(p)
			if err := ctx.Memory.Alloc(b); err != nil {
				return err
			}
			heldItems += b
			r.items = append(r.items, it)
		default:
			if !built {
				if err := build(); err != nil {
					return err
				}
			}
			tree.Probe(it, emit)
			r.ranks.buf = r.ranks.buf[:mark]
		}
		if emitErr != nil {
			return emitErr
		}
	}
	if !r.rs && !streaming {
		// Bulk self-join: the whole group is buffered; build, then
		// self-probe every item (the RID guard yields each unordered
		// pair exactly once, already normalized).
		if err := build(); err != nil {
			return err
		}
		for i := range r.items {
			tree.SelfProbe(r.items[i], emit)
			if emitErr != nil {
				return emitErr
			}
		}
	}
	countFVTStats(ctx, tree.Stats())
	return emitErr
}
