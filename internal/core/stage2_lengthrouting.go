package core

import (
	"fmt"

	"fuzzyjoin/internal/keys"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/records"
)

// §5 also observes that, before resorting to block processing, "we can
// exploit the length filter even in the BK algorithm, by using the
// length filter as a secondary record-routing criterion. In this way,
// records are routed on token-length-based keys. The additional routing
// criterion partitions the data even further, decreasing the amount of
// data that needs to fit in memory."
//
// This file implements that technique for the self-join BK kernel.
// Lengths are coarsened into buckets of Config.LengthBucket tokens. A
// projection of length l is routed to its home bucket b(l) once (role 0)
// and, as a "visitor" (role 1), to every lower bucket down to
// b(lengthLowerBound(l)) — the buckets that may hold shorter join
// partners. A reducer group is one (token, bucket): it buffers only the
// home projections (the memory win), cross-pairs them, and streams each
// visitor against them. Every admissible pair meets exactly once, in the
// lower of its two home buckets.
//
// Key layout: [group u32][bucket u32][role u8]; partition and group on
// the first 8 bytes, sort on the full key so homes precede visitors.

// lengthBucket coarsens a projection length.
func lengthBucket(l, width int) uint32 {
	return uint32(l / width)
}

// lengthRoutedMapper wraps the standard Stage 2 projection logic with
// (token, bucket, role) keys.
type lengthRoutedMapper struct {
	inner *stage2Mapper
	width int
}

// NewTaskInstance clones the wrapped mapper for the task.
func (lm *lengthRoutedMapper) NewTaskInstance() any {
	return &lengthRoutedMapper{inner: lm.inner.NewTaskInstance().(*stage2Mapper), width: lm.width}
}

func (lm *lengthRoutedMapper) Setup(ctx *mapreduce.Context) error { return lm.inner.Setup(ctx) }

func (lm *lengthRoutedMapper) Map(ctx *mapreduce.Context, _, value []byte, out mapreduce.Emitter) error {
	rid, ranks, err := lm.inner.project(value)
	if err != nil {
		return err
	}
	if len(ranks) == 0 {
		ctx.Count("stage2.empty_projections", 1)
		return nil
	}
	cfg := lm.inner.cfg
	val := records.Projection{RID: rid, Ranks: ranks}.AppendBinary(nil)
	l := len(ranks)
	home := lengthBucket(l, lm.width)
	lo, _ := cfg.Fn.LengthBounds(l, cfg.Threshold)
	lowest := lengthBucket(lo, lm.width)

	prefix := cfg.Fn.PrefixLength(l, cfg.Threshold)
	emitted := make(map[uint32]bool, prefix)
	for i := 0; i < prefix; i++ {
		g := lm.inner.group(ranks[i])
		if emitted[g] {
			continue
		}
		emitted[g] = true
		for b := lowest; b <= home; b++ {
			role := byte(roleStream)
			if b == home {
				role = roleLoad
			}
			k := keys.AppendUint32(nil, g)
			k = keys.AppendUint32(k, b)
			k = append(k, role)
			if err := out.Emit(k, val); err != nil {
				return err
			}
			ctx.Count("stage2.replicas", 1)
		}
	}
	return nil
}

// lengthRoutedReducer buffers a (token, bucket) group's home projections
// and streams its visitors against them.
type lengthRoutedReducer struct {
	cfg *Config
}

func (r *lengthRoutedReducer) Reduce(ctx *mapreduce.Context, key []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	opts := kernelOptions(r.cfg)
	var (
		homes      []ppjoin.Item
		held       int64
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
			st = addStats(st, ppjoin.NestedLoopSelf(homes, opts, emit))
			selfJoined = true
		}
	}
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		full := values.Key()
		if len(full) != 9 {
			return fmt.Errorf("core: malformed length-routed key of %d bytes", len(full))
		}
		role := full[8]
		p, err := records.DecodeProjection(v)
		if err != nil {
			return err
		}
		item := ppjoin.Item{RID: p.RID, Ranks: p.Ranks}
		if role == roleLoad {
			// Only the home projections are buffered — the point of the
			// technique.
			b := projectionBytes(p)
			if err := ctx.Memory.Alloc(b); err != nil {
				return err
			}
			held += b
			homes = append(homes, item)
			continue
		}
		flushSelf()
		st = addStats(st, ppjoin.NestedLoopRS(homes, []ppjoin.Item{item}, opts, emit))
		if emitErr != nil {
			return emitErr
		}
	}
	flushSelf()
	countKernelStats(ctx, st)
	return emitErr
}

// runStage2SelfLengthRouted runs the BK self-join kernel with the length
// filter as a secondary routing criterion.
func runStage2SelfLengthRouted(cfg *Config, input, tokenFile, work string) (string, []*mapreduce.Metrics, error) {
	out := work + "/s2"
	job, err := coreJob(cfg, progSpec{Kind: "s2-self-lenroute", TokenFile: tokenFile})
	if err != nil {
		return "", nil, err
	}
	job.Name = "s2-bk-self-lengthrouted"
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

// R-S length routing: every R projection sits in its single home bucket
// (R is the buffered side); every S projection visits each bucket its
// length-filter window [lo(l), hi(l)] covers, so each admissible (R, S)
// pair meets exactly once, in R's home bucket. Key layout:
// [group u32][bucket u32][rel u8]; partition and group on the first
// 8 bytes, sort on the full key so R homes precede S visitors.

// lengthRoutedRSMapper wraps the projection logic for one relation.
type lengthRoutedRSMapper struct {
	inner *stage2Mapper
	width int
	rel   byte
}

// NewTaskInstance clones the wrapped mapper for the task.
func (lm *lengthRoutedRSMapper) NewTaskInstance() any {
	return &lengthRoutedRSMapper{inner: lm.inner.NewTaskInstance().(*stage2Mapper), width: lm.width, rel: lm.rel}
}

func (lm *lengthRoutedRSMapper) Setup(ctx *mapreduce.Context) error { return lm.inner.Setup(ctx) }

func (lm *lengthRoutedRSMapper) Map(ctx *mapreduce.Context, _, value []byte, out mapreduce.Emitter) error {
	rid, ranks, err := lm.inner.project(value)
	if err != nil {
		return err
	}
	if len(ranks) == 0 {
		ctx.Count("stage2.empty_projections", 1)
		return nil
	}
	cfg := lm.inner.cfg
	val := records.Projection{RID: rid, Ranks: ranks}.AppendBinary(nil)
	l := len(ranks)
	loB, hiB := lengthBucket(l, lm.width), lengthBucket(l, lm.width)
	if lm.rel == relS {
		lo, hi := cfg.Fn.LengthBounds(l, cfg.Threshold)
		loB, hiB = lengthBucket(lo, lm.width), lengthBucket(hi, lm.width)
	}
	prefix := cfg.Fn.PrefixLength(l, cfg.Threshold)
	emitted := make(map[uint32]bool, prefix)
	for i := 0; i < prefix; i++ {
		g := lm.inner.group(ranks[i])
		if emitted[g] {
			continue
		}
		emitted[g] = true
		for b := loB; b <= hiB; b++ {
			k := keys.AppendUint32(nil, g)
			k = keys.AppendUint32(k, b)
			k = append(k, lm.rel)
			if err := out.Emit(k, val); err != nil {
				return err
			}
			ctx.Count("stage2.replicas", 1)
		}
	}
	return nil
}

// lengthRoutedRSReducer buffers a (token, bucket) group's R projections
// and streams its S visitors.
type lengthRoutedRSReducer struct {
	cfg *Config
}

func (r *lengthRoutedRSReducer) Reduce(ctx *mapreduce.Context, _ []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	opts := kernelOptions(r.cfg)
	var (
		rItems  []ppjoin.Item
		held    int64
		st      ppjoin.Stats
		emitErr error
	)
	defer func() { ctx.Memory.Free(held) }()
	emit := func(p records.RIDPair) {
		if emitErr == nil {
			emitErr = emitRIDPair(out, p)
		}
	}
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		full := values.Key()
		if len(full) != 9 {
			return fmt.Errorf("core: malformed length-routed R-S key of %d bytes", len(full))
		}
		rel := full[8]
		p, err := records.DecodeProjection(v)
		if err != nil {
			return err
		}
		item := ppjoin.Item{RID: p.RID, Ranks: p.Ranks}
		if rel == relR {
			b := projectionBytes(p)
			if err := ctx.Memory.Alloc(b); err != nil {
				return err
			}
			held += b
			rItems = append(rItems, item)
			continue
		}
		st = addStats(st, ppjoin.NestedLoopRS(rItems, []ppjoin.Item{item}, opts, emit))
		if emitErr != nil {
			return emitErr
		}
	}
	countKernelStats(ctx, st)
	return emitErr
}

// runStage2RSLengthRouted runs the BK R-S kernel with the length filter
// as a secondary routing criterion.
func runStage2RSLengthRouted(cfg *Config, inputR, inputS, tokenFile, work string) (string, []*mapreduce.Metrics, error) {
	out := work + "/s2"
	job, err := coreJob(cfg, progSpec{Kind: "s2-rs-lenroute", TokenFile: tokenFile, InputR: inputR, RS: true})
	if err != nil {
		return "", nil, err
	}
	job.Name = "s2-bk-rs-lengthrouted"
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

// rsLengthRoutedDispatchMapper routes records by input relation.
type rsLengthRoutedDispatchMapper struct {
	r, s *lengthRoutedRSMapper
	isR  func(file string) bool
}

// NewTaskInstance clones both sub-mappers for the task.
func (m *rsLengthRoutedDispatchMapper) NewTaskInstance() any {
	return &rsLengthRoutedDispatchMapper{
		r:   m.r.NewTaskInstance().(*lengthRoutedRSMapper),
		s:   m.s.NewTaskInstance().(*lengthRoutedRSMapper),
		isR: m.isR,
	}
}

func (m *rsLengthRoutedDispatchMapper) Setup(ctx *mapreduce.Context) error {
	if err := m.r.Setup(ctx); err != nil {
		return err
	}
	m.s.inner.order = m.r.inner.order
	m.s.inner.numGroups = m.r.inner.numGroups
	return nil
}

func (m *rsLengthRoutedDispatchMapper) Map(ctx *mapreduce.Context, key, value []byte, out mapreduce.Emitter) error {
	if m.isR(ctx.InputFile) {
		return m.r.Map(ctx, key, value, out)
	}
	return m.s.Map(ctx, key, value, out)
}
