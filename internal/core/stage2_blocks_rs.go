package core

import (
	"fmt"

	"fuzzyjoin/internal/keys"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/records"
)

// §5, "Handling R-S Joins": only the R partition is sub-partitioned into
// blocks; each resident R block sees the entire S stream.
//
//   - map-based: every R projection is emitted once (its load round);
//     every S projection is replicated into all NumBlocks rounds and
//     interleaved after each round's R block.
//   - reduce-based: each projection is sent once; R blocks beyond the
//     first and the whole S partition are spilled to local disk and
//     replayed per round.

// blockedRSMapper routes R and S projections with block-processing keys.
type blockedRSMapper struct {
	inner *stage2Mapper // provides projection + grouping
	mode  BlockMode
	m     int
	rel   byte
}

// NewTaskInstance clones the wrapped mapper for the task.
func (bm *blockedRSMapper) NewTaskInstance() any {
	return &blockedRSMapper{inner: bm.inner.NewTaskInstance().(*stage2Mapper), mode: bm.mode, m: bm.m, rel: bm.rel}
}

func (bm *blockedRSMapper) Setup(ctx *mapreduce.Context) error { return bm.inner.Setup(ctx) }

func (bm *blockedRSMapper) Map(ctx *mapreduce.Context, _, value []byte, out mapreduce.Emitter) error {
	rid, ranks, err := bm.inner.project(value)
	if err != nil {
		return err
	}
	if len(ranks) == 0 {
		ctx.Count("stage2.empty_projections", 1)
		return nil
	}
	val := records.Projection{RID: rid, Ranks: ranks}.AppendBinary(nil)
	prefix := bm.inner.cfg.Fn.PrefixLength(len(ranks), bm.inner.cfg.Threshold)
	emitted := make(map[uint32]bool, prefix)
	for i := 0; i < prefix; i++ {
		g := bm.inner.group(ranks[i])
		if emitted[g] {
			continue
		}
		emitted[g] = true
		if err := bm.emit(g, rid, val, out, ctx); err != nil {
			return err
		}
	}
	return nil
}

func (bm *blockedRSMapper) emit(g uint32, rid uint64, val []byte, out mapreduce.Emitter, ctx *mapreduce.Context) error {
	switch bm.mode {
	case MapBlocks:
		// Key: [group][round u32][role u8]. R loads in its own round;
		// S streams in every round.
		if bm.rel == relR {
			b := blockOf(rid, bm.m)
			k := keys.AppendUint32(nil, g)
			k = keys.AppendUint32(k, b)
			k = append(k, roleLoad)
			ctx.Count("stage2.replicas", 1)
			return out.Emit(k, val)
		}
		for r := uint32(0); r < uint32(bm.m); r++ {
			k := keys.AppendUint32(nil, g)
			k = keys.AppendUint32(k, r)
			k = append(k, roleStream)
			if err := out.Emit(k, val); err != nil {
				return err
			}
			ctx.Count("stage2.replicas", 1)
		}
		return nil
	default: // ReduceBlocks
		// Key: [group][side u8][block u32]: all R blocks sort before the
		// S partition.
		k := keys.AppendUint32(nil, g)
		if bm.rel == relR {
			k = append(k, 0)
			k = keys.AppendUint32(k, blockOf(rid, bm.m))
		} else {
			k = append(k, 1)
			k = keys.AppendUint32(k, 0)
		}
		ctx.Count("stage2.replicas", 1)
		return out.Emit(k, val)
	}
}

// mapBlockedRSReducer consumes per-round (R block, S stream) sequences.
type mapBlockedRSReducer struct {
	cfg *Config
}

func (r *mapBlockedRSReducer) Reduce(ctx *mapreduce.Context, _ []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	opts := kernelOptions(r.cfg)
	var (
		loaded   []ppjoin.Item
		held     int64
		curRound = int64(-1)
		st       ppjoin.Stats
		emitErr  error
	)
	defer func() { ctx.Memory.Free(held) }()
	emit := func(p records.RIDPair) {
		if emitErr == nil {
			emitErr = emitRIDPair(out, p)
		}
	}
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		key := values.Key()
		if len(key) != 9 {
			return fmt.Errorf("core: malformed map-blocked R-S key of %d bytes", len(key))
		}
		round, _ := keys.MustUint32(key[4:])
		role := key[8]
		if int64(round) != curRound {
			ctx.Memory.Free(held)
			held = 0
			loaded = loaded[:0]
			curRound = int64(round)
		}
		p, err := records.DecodeProjection(v)
		if err != nil {
			return err
		}
		item := ppjoin.Item{RID: p.RID, Ranks: p.Ranks}
		if role == roleLoad {
			b := projectionBytes(p)
			if err := ctx.Memory.Alloc(b); err != nil {
				return err
			}
			held += b
			loaded = append(loaded, item)
			continue
		}
		st = addStats(st, ppjoin.NestedLoopRS(loaded, []ppjoin.Item{item}, opts, emit))
		if emitErr != nil {
			return emitErr
		}
	}
	countKernelStats(ctx, st)
	return emitErr
}

// reduceBlockedRSReducer keeps R block 0 resident, spills the other R
// blocks and the S partition, and replays S against each R block.
type reduceBlockedRSReducer struct {
	cfg *Config
}

func (r *reduceBlockedRSReducer) Reduce(ctx *mapreduce.Context, _ []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	opts := kernelOptions(r.cfg)
	sp, err := newSpill()
	if err != nil {
		return err
	}
	defer sp.close()
	// Spill namespace: R blocks keep their ids; the S partition uses a
	// sentinel id above any R block.
	const sBlock = ^uint32(0)

	var (
		resident   []ppjoin.Item
		held       int64
		firstBlock = int64(-1)
		st         ppjoin.Stats
		emitErr    error
	)
	defer func() { ctx.Memory.Free(held) }()
	emit := func(p records.RIDPair) {
		if emitErr == nil {
			emitErr = emitRIDPair(out, p)
		}
	}
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		key := values.Key()
		if len(key) != 9 {
			return fmt.Errorf("core: malformed reduce-blocked R-S key of %d bytes", len(key))
		}
		side := key[4]
		block, _ := keys.MustUint32(key[5:])
		p, err := records.DecodeProjection(v)
		if err != nil {
			return err
		}
		item := ppjoin.Item{RID: p.RID, Ranks: p.Ranks}
		if side == 0 { // R
			if firstBlock < 0 {
				firstBlock = int64(block)
			}
			if int64(block) == firstBlock {
				b := projectionBytes(p)
				if err := ctx.Memory.Alloc(b); err != nil {
					return err
				}
				held += b
				resident = append(resident, item)
				continue
			}
			if err := sp.add(block, v); err != nil {
				return err
			}
			continue
		}
		// S: join against the resident R block and spill for the replay
		// rounds.
		st = addStats(st, ppjoin.NestedLoopRS(resident, []ppjoin.Item{item}, opts, emit))
		if emitErr != nil {
			return emitErr
		}
		if err := sp.add(sBlock, v); err != nil {
			return err
		}
	}

	// Replay: each spilled R block becomes resident and sees the spilled
	// S partition.
	sItems, err := sp.load(sBlock)
	if err != nil {
		return err
	}
	for _, b := range sp.blocks() {
		if b == sBlock {
			continue
		}
		ctx.Memory.Free(held)
		held = 0
		loaded, err := sp.load(b)
		if err != nil {
			return err
		}
		for _, it := range loaded {
			bb := projectionBytes(records.Projection{RID: it.RID, Ranks: it.Ranks})
			if err := ctx.Memory.Alloc(bb); err != nil {
				return err
			}
			held += bb
		}
		st = addStats(st, ppjoin.NestedLoopRS(loaded, sItems, opts, emit))
		if emitErr != nil {
			return emitErr
		}
	}
	ctx.Count("stage2.spill_bytes", sp.writes)
	countKernelStats(ctx, st)
	return emitErr
}

// runStage2RSBlocked runs the BK R-S kernel with §5 block processing.
func runStage2RSBlocked(cfg *Config, inputR, inputS, tokenFile, work string) (string, []*mapreduce.Metrics, error) {
	out := work + "/s2"
	job, err := coreJob(cfg, progSpec{Kind: "s2-rs-blocked", TokenFile: tokenFile, InputR: inputR, RS: true})
	if err != nil {
		return "", nil, err
	}
	job.Name = fmt.Sprintf("s2-bk-rs-%s", cfg.BlockMode)
	job.Inputs = []string{inputR, inputS}
	job.InputFormat = mapreduce.Text
	job.Output = out
	job.SideFiles = []string{tokenFile}
	m, err := mapreduce.RunContext(cfg.context(), job)
	if err != nil {
		return "", nil, err
	}
	return out, []*mapreduce.Metrics{m}, nil
}

// rsBlockedDispatchMapper routes records to the R or S blocked mapper by
// input file.
type rsBlockedDispatchMapper struct {
	r, s *blockedRSMapper
	isR  func(file string) bool
}

// NewTaskInstance clones both sub-mappers for the task.
func (m *rsBlockedDispatchMapper) NewTaskInstance() any {
	return &rsBlockedDispatchMapper{
		r:   m.r.NewTaskInstance().(*blockedRSMapper),
		s:   m.s.NewTaskInstance().(*blockedRSMapper),
		isR: m.isR,
	}
}

func (m *rsBlockedDispatchMapper) Setup(ctx *mapreduce.Context) error {
	if err := m.r.Setup(ctx); err != nil {
		return err
	}
	m.s.inner.order = m.r.inner.order
	m.s.inner.numGroups = m.r.inner.numGroups
	return nil
}

func (m *rsBlockedDispatchMapper) Map(ctx *mapreduce.Context, key, value []byte, out mapreduce.Emitter) error {
	if m.isR(ctx.InputFile) {
		return m.r.Map(ctx, key, value, out)
	}
	return m.s.Map(ctx, key, value, out)
}
