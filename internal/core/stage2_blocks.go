package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"fuzzyjoin/internal/keys"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/records"
)

// §5 — handling insufficient memory. When even the finest-grained
// partitioning leaves a Stage 2 reduce group too large for one node's
// memory, the group is sub-partitioned into NumBlocks blocks (by RID) and
// the cross-product is computed block-at-a-time:
//
//   - map-based: mappers replicate and interleave block copies so the
//     reducer consumes, for each round r, block r once as a resident
//     "load" copy followed by blocks r+1.. as streamed copies
//     (Figure 7(a));
//   - reduce-based: mappers send each block once; the reducer keeps the
//     first block resident, spills the rest to local disk, and replays
//     the spilled blocks round by round (Figure 7(b)).
//
// For R-S joins only the R partition is sub-partitioned: S streams
// against each resident R block (§5, Handling R-S Joins). Block
// processing applies to the BK kernel (the PK kernel already bounds
// memory via the length filter; §5 notes the filters themselves are the
// first line of defense).
//
// Key layouts (partition and group on the 4-byte group prefix):
//
//	self, map-based:   [group u32][round u32][role u8][block u32]
//	self, reduce-based:[group u32][block u32]
//	R-S,  map-based:   [group u32][round u32][role u8]   role: 0 = R load, 1 = S stream
//	R-S,  reduce-based:[group u32][side u8][block u32]   side: 0 = R, 1 = S
const (
	roleLoad   = 0
	roleStream = 1
)

// blockOf assigns a record to a block. RIDs are well-spread (sequential
// across the dataset), so modular assignment balances block sizes.
func blockOf(rid uint64, numBlocks int) uint32 {
	return uint32(rid % uint64(numBlocks))
}

// blockedSelfMapper routes projections with block-processing keys.
type blockedSelfMapper struct {
	inner *stage2Mapper
	mode  BlockMode
	m     int // number of blocks
}

// NewTaskInstance clones the wrapped mapper for the task.
func (bm *blockedSelfMapper) NewTaskInstance() any {
	return &blockedSelfMapper{inner: bm.inner.NewTaskInstance().(*stage2Mapper), mode: bm.mode, m: bm.m}
}

func (bm *blockedSelfMapper) Setup(ctx *mapreduce.Context) error { return bm.inner.Setup(ctx) }

func (bm *blockedSelfMapper) Map(ctx *mapreduce.Context, _, value []byte, out mapreduce.Emitter) error {
	rid, ranks, err := bm.inner.project(value)
	if err != nil {
		return err
	}
	if len(ranks) == 0 {
		ctx.Count("stage2.empty_projections", 1)
		return nil
	}
	val := records.Projection{RID: rid, Ranks: ranks}.AppendBinary(nil)
	b := blockOf(rid, bm.m)
	prefix := bm.inner.cfg.Fn.PrefixLength(len(ranks), bm.inner.cfg.Threshold)
	emitted := make(map[uint32]bool, prefix)
	for i := 0; i < prefix; i++ {
		g := bm.inner.group(ranks[i])
		if emitted[g] {
			continue
		}
		emitted[g] = true
		switch bm.mode {
		case MapBlocks:
			// Block b is loaded in round b and streamed in every earlier
			// round: b+1 copies, interleaved by the composite key.
			for r := uint32(0); r <= b; r++ {
				role := byte(roleStream)
				if r == b {
					role = roleLoad
				}
				k := keys.AppendUint32(nil, g)
				k = keys.AppendUint32(k, r)
				k = append(k, role)
				k = keys.AppendUint32(k, b)
				if err := out.Emit(k, val); err != nil {
					return err
				}
				ctx.Count("stage2.replicas", 1)
			}
		case ReduceBlocks:
			k := keys.AppendUint32(nil, g)
			k = keys.AppendUint32(k, b)
			if err := out.Emit(k, val); err != nil {
				return err
			}
			ctx.Count("stage2.replicas", 1)
		}
	}
	return nil
}

// emitSelfPair normalizes a cross-block pair to A < B and writes it.
func emitSelfPair(out mapreduce.Emitter, p records.RIDPair) error {
	if p.A > p.B {
		p.A, p.B = p.B, p.A
	}
	return emitRIDPair(out, p)
}

// mapBlockedSelfReducer consumes the interleaved block copies
// (Figure 7(a)): per round, it loads the resident block, self-joins it,
// and joins each streamed projection against it.
type mapBlockedSelfReducer struct {
	cfg *Config
}

func (r *mapBlockedSelfReducer) Reduce(ctx *mapreduce.Context, _ []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	opts := kernelOptions(r.cfg)
	var (
		loaded     []ppjoin.Item
		held       int64
		curRound   = int64(-1)
		selfJoined bool
		st         ppjoin.Stats
		emitErr    error
	)
	defer func() { ctx.Memory.Free(held) }()
	emit := func(p records.RIDPair) {
		if emitErr == nil {
			emitErr = emitSelfPair(out, p)
		}
	}
	flushSelf := func() {
		if !selfJoined {
			sub := ppjoin.NestedLoopSelf(loaded, opts, emit)
			st = addStats(st, sub)
			selfJoined = true
		}
	}
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		round, role, err := parseMapBlockKey(values.Key())
		if err != nil {
			return err
		}
		if int64(round) != curRound {
			flushSelf()
			ctx.Memory.Free(held)
			held = 0
			loaded = loaded[:0]
			selfJoined = false
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
		flushSelf()
		sub := ppjoin.NestedLoopRS(loaded, []ppjoin.Item{item}, opts, emit)
		st = addStats(st, sub)
		if emitErr != nil {
			return emitErr
		}
	}
	flushSelf()
	countKernelStats(ctx, st)
	return emitErr
}

func parseMapBlockKey(key []byte) (round uint32, role byte, err error) {
	if len(key) != 13 {
		return 0, 0, fmt.Errorf("core: malformed map-blocked key of %d bytes", len(key))
	}
	round, _ = keys.MustUint32(key[4:])
	return round, key[8], nil
}

func addStats(a, b ppjoin.Stats) ppjoin.Stats {
	a.Candidates += b.Candidates
	a.BitmapRejected += b.BitmapRejected
	a.Verified += b.Verified
	a.Results += b.Results
	return a
}

// spill is a local-disk block store for reduce-based processing.
type spill struct {
	dir    string
	files  map[uint32]*os.File
	writes int64
}

func newSpill() (*spill, error) {
	dir, err := os.MkdirTemp("", "fuzzyjoin-spill-")
	if err != nil {
		return nil, err
	}
	return &spill{dir: dir, files: make(map[uint32]*os.File)}, nil
}

func (s *spill) add(block uint32, encoded []byte) error {
	f, ok := s.files[block]
	if !ok {
		var err error
		f, err = os.Create(filepath.Join(s.dir, fmt.Sprintf("block-%d", block)))
		if err != nil {
			return err
		}
		s.files[block] = f
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(encoded)))
	if _, err := f.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := f.Write(encoded)
	s.writes += int64(n + len(encoded))
	return err
}

// load reads back one spilled block as decoded items.
func (s *spill) load(block uint32) ([]ppjoin.Item, error) {
	f, ok := s.files[block]
	if !ok {
		return nil, nil
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		return nil, err
	}
	var items []ppjoin.Item
	for len(data) > 0 {
		sz, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < sz {
			return nil, fmt.Errorf("core: corrupt spill block %d", block)
		}
		p, err := records.DecodeProjection(data[n : n+int(sz)])
		if err != nil {
			return nil, err
		}
		items = append(items, ppjoin.Item{RID: p.RID, Ranks: p.Ranks})
		data = data[n+int(sz):]
	}
	return items, nil
}

func (s *spill) blocks() []uint32 {
	out := make([]uint32, 0, len(s.files))
	for b := range s.files {
		out = append(out, b)
	}
	// Insertion sort: block counts are small.
	for i := 1; i < len(out); i++ {
		v := out[i]
		j := i - 1
		for j >= 0 && out[j] > v {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = v
	}
	return out
}

func (s *spill) close() {
	for _, f := range s.files {
		f.Close()
	}
	os.RemoveAll(s.dir)
}

// reduceBlockedSelfReducer implements Figure 7(b): the first block stays
// resident and self-joins; later blocks stream against it and spill to
// local disk; spilled blocks then replay round by round.
type reduceBlockedSelfReducer struct {
	cfg *Config
}

func (r *reduceBlockedSelfReducer) Reduce(ctx *mapreduce.Context, _ []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	opts := kernelOptions(r.cfg)
	sp, err := newSpill()
	if err != nil {
		return err
	}
	defer sp.close()

	var (
		resident   []ppjoin.Item
		held       int64
		firstBlock = int64(-1)
		selfJoined bool
		st         ppjoin.Stats
		emitErr    error
	)
	defer func() { ctx.Memory.Free(held) }()
	emit := func(p records.RIDPair) {
		if emitErr == nil {
			emitErr = emitSelfPair(out, p)
		}
	}
	flushSelf := func() {
		if !selfJoined {
			st = addStats(st, ppjoin.NestedLoopSelf(resident, opts, emit))
			selfJoined = true
		}
	}
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		if len(values.Key()) != 8 {
			return fmt.Errorf("core: malformed reduce-blocked key of %d bytes", len(values.Key()))
		}
		block, _ := keys.MustUint32(values.Key()[4:])
		p, err := records.DecodeProjection(v)
		if err != nil {
			return err
		}
		if firstBlock < 0 {
			firstBlock = int64(block)
		}
		if int64(block) == firstBlock {
			b := projectionBytes(p)
			if err := ctx.Memory.Alloc(b); err != nil {
				return err
			}
			held += b
			resident = append(resident, ppjoin.Item{RID: p.RID, Ranks: p.Ranks})
			continue
		}
		// A later block: join against the resident block, spill for the
		// replay rounds.
		flushSelf()
		item := ppjoin.Item{RID: p.RID, Ranks: p.Ranks}
		st = addStats(st, ppjoin.NestedLoopRS(resident, []ppjoin.Item{item}, opts, emit))
		if emitErr != nil {
			return emitErr
		}
		if err := sp.add(block, v); err != nil {
			return err
		}
	}
	flushSelf()

	// Replay rounds: each spilled block becomes resident once, self-joins,
	// and streams the remaining spilled blocks.
	blocks := sp.blocks()
	for bi, b := range blocks {
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
		st = addStats(st, ppjoin.NestedLoopSelf(loaded, opts, emit))
		for _, b2 := range blocks[bi+1:] {
			streamed, err := sp.load(b2)
			if err != nil {
				return err
			}
			st = addStats(st, ppjoin.NestedLoopRS(loaded, streamed, opts, emit))
		}
		if emitErr != nil {
			return emitErr
		}
	}
	ctx.Count("stage2.spill_bytes", sp.writes)
	countKernelStats(ctx, st)
	return emitErr
}

// runStage2SelfBlocked runs the BK self-join kernel with §5 block
// processing.
func runStage2SelfBlocked(cfg *Config, input, tokenFile, work string) (string, []*mapreduce.Metrics, error) {
	out := work + "/s2"
	// Partitioning and grouping ride on the group id (prefix 4); the sort
	// on the full key makes blocks arrive interleaved (map-based) or in
	// order (reduce-based).
	job, err := coreJob(cfg, progSpec{Kind: "s2-self-blocked", TokenFile: tokenFile})
	if err != nil {
		return "", nil, err
	}
	job.Name = fmt.Sprintf("s2-bk-self-%s", cfg.BlockMode)
	job.Inputs = []string{input}
	job.InputFormat = mapreduce.Text
	job.Output = out
	job.SideFiles = []string{tokenFile}
	m, err := mapreduce.RunContext(cfg.context(), job)
	if err != nil {
		return "", nil, err
	}
	return out, []*mapreduce.Metrics{m}, nil
}
