package core

import (
	"fmt"

	"fuzzyjoin/internal/keys"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/records"
)

// §2.2 discusses an alternative to Stages 2 and 3: one stage "in which we
// let key-value pairs carry complete records, instead of projecting
// records on their RIDs and join-attribute values. We implemented this
// alternative and noticed a much worse performance, so we do not consider
// this option in this paper."
//
// This file reproduces that rejected design so the harness can measure
// why it loses: the complete record — not a compact projection — is
// replicated once per prefix token, inflating the shuffle by roughly the
// record-size/projection-size ratio, and a second (cheap) job is still
// needed to de-duplicate pairs found under several shared prefix tokens.
//
// SingleStageSelfJoin runs token ordering (per Config.TokenOrder), then
// the carry-records kernel, then the dedup pass, and returns a Result
// shaped like SelfJoin's (stage 3 holds the dedup job).

// carryRecordsMapper routes complete records by their prefix tokens.
type carryRecordsMapper struct {
	cfg       *Config
	tokenFile string

	tokenGroups
	recordScratch
}

// NewTaskInstance gives each map task its own record scratch.
func (m *carryRecordsMapper) NewTaskInstance() any {
	return &carryRecordsMapper{cfg: m.cfg, tokenFile: m.tokenFile}
}

func (m *carryRecordsMapper) Setup(ctx *mapreduce.Context) (err error) {
	m.tokenGroups, err = loadTokenGroups(ctx, m.cfg, m.tokenFile, true)
	return err
}

func (m *carryRecordsMapper) Map(ctx *mapreduce.Context, _, value []byte, out mapreduce.Emitter) error {
	rid, ranks, err := m.project(m.cfg, m.order, value)
	if err != nil {
		return err
	}
	if len(ranks) == 0 {
		return nil
	}
	// Value = projection ‖ 0x00-free record line. The projection spares
	// reducers re-tokenizing, but the record line travels with every
	// replica — the design's cost.
	val := records.Projection{RID: rid, Ranks: ranks}.AppendBinary(nil)
	val = append(val, value...)
	prefix := m.cfg.Fn.PrefixLength(len(ranks), m.cfg.Threshold)
	emitted := make(map[uint32]bool, prefix)
	for i := 0; i < prefix; i++ {
		g := m.group(ranks[i])
		if emitted[g] {
			continue
		}
		emitted[g] = true
		if err := out.Emit(keys.AppendUint32(nil, g), val); err != nil {
			return err
		}
	}
	ctx.Count("stage2.replicas", int64(len(emitted)))
	return nil
}

// carryRecordsReducer buffers a group's complete records, cross-pairs
// them, and emits fully joined pairs keyed by (A, B) for the dedup pass.
type carryRecordsReducer struct {
	cfg *Config
	// ranks holds the group's decoded projections: they live as long as
	// the group does.
	ranks rankArena
	kernelCounts
}

// NewTaskInstance gives each reduce task its own rank arena.
func (r *carryRecordsReducer) NewTaskInstance() any { return &carryRecordsReducer{cfg: r.cfg} }

type carriedRecord struct {
	item ppjoin.Item
	line string
}

func (r *carryRecordsReducer) Reduce(ctx *mapreduce.Context, _ []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	var (
		recs []carriedRecord
		held int64
	)
	defer func() { ctx.Memory.Free(held) }()
	r.ranks.reset()
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		p, buf, used, err := records.DecodeProjectionInto(r.ranks.buf, v)
		if err != nil {
			return err
		}
		r.ranks.buf = buf
		// The record line follows the projection.
		line := string(v[used:])
		b := int64(len(v)) + 48
		if err := ctx.Memory.Alloc(b); err != nil {
			return err
		}
		held += b
		recs = append(recs, carriedRecord{item: ppjoin.Item{RID: p.RID, Ranks: p.Ranks}, line: line})
	}
	byRID := make(map[uint64]string, len(recs))
	items := make([]ppjoin.Item, len(recs))
	for i, cr := range recs {
		items[i] = cr.item
		byRID[cr.item.RID] = cr.line
	}
	opts := kernelOptions(r.cfg)
	var emitErr error
	st := ppjoin.NestedLoopSelf(items, opts, nil, func(p records.RIDPair) {
		if emitErr != nil {
			return
		}
		left, err := records.ParseLine(byRID[p.A])
		if err != nil {
			emitErr = err
			return
		}
		right, err := records.ParseLine(byRID[p.B])
		if err != nil {
			emitErr = err
			return
		}
		jp := records.JoinedPair{Left: left, Right: right, Sim: p.Sim}
		emitErr = out.Emit(pairGroupKey(p), []byte(jp.String()))
	})
	r.count(st)
	return emitErr
}

// dedupFirstReducer keeps one value per key (duplicate joined pairs from
// different shared prefix tokens are byte-identical).
type dedupFirstReducer struct {
	pairs int64 // the task's stage3.pairs, counted from Cleanup
}

// NewTaskInstance gives each reduce task its own pair count.
func (*dedupFirstReducer) NewTaskInstance() any { return &dedupFirstReducer{} }

func (r *dedupFirstReducer) Reduce(_ *mapreduce.Context, _ []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	v, ok := values.Next()
	if !ok {
		return nil
	}
	r.pairs++
	return out.Emit(nil, v)
}

func (r *dedupFirstReducer) Cleanup(ctx *mapreduce.Context, _ mapreduce.Emitter) error {
	countPairs(ctx, r.pairs)
	return nil
}

// countPairs adds a Stage 3 task's joined pairs to stage3.pairs, once per
// task: a task that joined none adds nothing.
func countPairs(ctx *mapreduce.Context, n int64) {
	if n > 0 {
		ctx.Count("stage3.pairs", n)
	}
}

// SingleStageSelfJoin runs the §2.2 carry-complete-records alternative
// end-to-end.
func SingleStageSelfJoin(cfg Config, input string) (*Result, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	defer cfg.withScratch()()
	if !cfg.FS.Exists(input) {
		return nil, fmt.Errorf("core: input %q does not exist", input)
	}
	res := &Result{}

	tokenFile, m1, err := runStage1(&cfg, input, cfg.Work)
	if err != nil {
		return nil, fmt.Errorf("stage 1 (%s): %w", cfg.TokenOrder, err)
	}
	res.TokenOrderFile = tokenFile
	res.Stages[0] = StageMetrics{Stage: 1, Alg: cfg.TokenOrder.String(), Jobs: m1}

	kernelOut := cfg.Work + "/ss-kernel"
	job, err := coreJob(&cfg, progSpec{Kind: "ss-carry", TokenFile: tokenFile})
	if err != nil {
		return nil, fmt.Errorf("carry-records kernel: %w", err)
	}
	job.Name = "ss-carry-records"
	job.Inputs = []string{input}
	job.InputFormat = mapreduce.Text
	job.Output = kernelOut
	job.SideFiles = []string{tokenFile}
	m2, err := mapreduce.RunContext(cfg.context(), job)
	if err != nil {
		return nil, fmt.Errorf("carry-records kernel: %w", err)
	}
	res.Stages[1] = StageMetrics{Stage: 2, Alg: "CARRY", Jobs: []*mapreduce.Metrics{m2}}

	out := cfg.Work + "/out"
	job, err = coreJob(&cfg, progSpec{Kind: "ss-dedup"})
	if err != nil {
		return nil, fmt.Errorf("dedup: %w", err)
	}
	job.Name = "ss-dedup"
	job.Inputs = []string{kernelOut + "/"}
	job.InputFormat = mapreduce.Pairs
	job.Output = out
	job.OutputFormat = mapreduce.Text
	m3, err := mapreduce.RunContext(cfg.context(), job)
	if err != nil {
		return nil, fmt.Errorf("dedup: %w", err)
	}
	res.Stages[2] = StageMetrics{Stage: 3, Alg: "DEDUP", Jobs: []*mapreduce.Metrics{m3}}
	res.Output = out
	res.RIDPairs = kernelOut
	res.Pairs = m3.Counters["stage3.pairs"]
	return res, nil
}
