package core

import (
	"fmt"

	"fuzzyjoin/internal/keys"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/records"
)

// Stage 2 — RID-pair generation (§3.2, §4, §5). One mapper extracts each
// record's projection (RID + join-attribute token ranks), computes its
// prefix under the global token order, and for each distinct prefix
// group hands the routing prefix to the configured key layout's route
// (stage2_keys.go), which emits one replica per key suffix. Reducers
// verify candidates per reduce group — the round reducer and its
// spill-replay variant for BK, the PK and FVT reducers
// (stage2_reduce.go, stage2_fvt.go) — and emit (RID, RID, sim) triples,
// each pair exactly once across the whole job (stage2_owner.go).

const (
	relR = 0
	relS = 1
)

// stage2Mapper projects and routes records.
type stage2Mapper struct {
	cfg *Config
	// tokenFile is the Stage 1 output side file.
	tokenFile string
	// inputR is the R records file of an R-S join ("" for a self-join):
	// §4 extends the key with a relation tag, and the tag comes from the
	// input file a record was read from.
	inputR string

	tokenGroups
	// rs selects the R-S key layouts; layout is the configured row of
	// the key-layout table, chosen once per task.
	rs     bool
	layout keyLayout
	// The record scratch, keyBuf, valBuf, seen and replicas are reused
	// across records: the record's tokens and ranks, the key under
	// construction, the record's encoded projection, the groups the
	// current record was already routed to, and its replica count.
	recordScratch
	keyBuf   []byte
	valBuf   []byte
	seen     []uint32
	replicas int64
}

// NewTaskInstance gives each map task its own mapper (the group count
// and reused buffers are per-task state; the token order is the job's).
func (m *stage2Mapper) NewTaskInstance() any {
	return &stage2Mapper{cfg: m.cfg, tokenFile: m.tokenFile, inputR: m.inputR}
}

func (m *stage2Mapper) Setup(ctx *mapreduce.Context) (err error) {
	if m.tokenGroups, err = loadTokenGroups(ctx, m.cfg, m.tokenFile, true); err != nil {
		return err
	}
	m.rs = m.inputR != ""
	m.layout = layoutFor(m.cfg, m.rs)
	m.keyBuf = make([]byte, 0, maxKeyLen)
	return nil
}

func (m *stage2Mapper) Map(ctx *mapreduce.Context, _, value []byte, out mapreduce.Emitter) error {
	// Tokens absent from the global order are discarded — relevant for
	// the S relation, whose unknown tokens cannot produce candidates
	// against R (§4 Stage 1).
	rid, ranks, err := m.project(m.cfg, m.order, value)
	if err != nil {
		return err
	}
	if len(ranks) == 0 {
		ctx.Count("stage2.empty_projections", 1)
		return nil
	}
	m.valBuf = records.Projection{RID: rid, Ranks: ranks}.AppendBinary(m.valBuf[:0])
	p := routed{rid: rid, length: len(ranks), rel: relR}
	if m.rs && ctx.InputFile != m.inputR {
		p.rel = relS
	}
	sink := replicaSink{out: out, val: m.valBuf, n: &m.replicas}
	m.seen, m.replicas = m.seen[:0], 0
	prefix := m.cfg.Fn.PrefixLength(len(ranks), m.cfg.Threshold)
	for i := 0; i < prefix; i++ {
		if err := m.routeGroup(p, m.group(ranks[i]), sink); err != nil {
			return err
		}
	}
	// One counter update a record: each takes the counters' lock.
	ctx.Count("stage2.replicas", m.replicas)
	return nil
}

// routeGroup routes the current record to one group. Grouped routing can
// map several prefix tokens to one group; one visit per group suffices
// (the point of grouping: fewer replicas, §3.2).
func (m *stage2Mapper) routeGroup(p routed, g uint32, sink replicaSink) error {
	for i := len(m.seen) - 1; i >= 0; i-- {
		if m.seen[i] == g {
			return nil
		}
		// Ranks ascend, so with individual routing a group never recurs
		// once a later one was visited.
		if !m.grouped {
			break
		}
	}
	m.seen = append(m.seen, g)
	return m.layout.route(m, p, keys.AppendUint32(m.keyBuf[:0], g), sink)
}

func kernelOptions(cfg *Config) ppjoin.Options {
	return ppjoin.Options{Fn: cfg.Fn, Threshold: cfg.Threshold, Filters: *cfg.Filters}
}

// kernelCounts sums a Stage 2 reduce task's kernel counters over its
// groups, and Cleanup adds them to the job's counters once per task
// rather than once per group.
type kernelCounts struct {
	st     ppjoin.Stats
	groups bool // a task that reduced no group adds no counter
}

func (k *kernelCounts) count(st ppjoin.Stats) {
	k.st.Add(st)
	k.groups = true
}

func (k *kernelCounts) Cleanup(ctx *mapreduce.Context, _ mapreduce.Emitter) error {
	if k.groups {
		countKernelStats(ctx, k.st)
	}
	return nil
}

func countKernelStats(ctx *mapreduce.Context, st ppjoin.Stats) {
	ctx.Count("stage2.candidates", st.Candidates)
	// BK and PK materialize every candidate before verification; the
	// FVT kernel reports 0 here (countFVTStats), making the
	// shuffle-volume claim measurable per cell.
	ctx.Count("stage2.candidates_materialized", st.Candidates)
	ctx.Count("stage2.bitmap_rejected", st.BitmapRejected)
	ctx.Count("stage2.verified", st.Verified)
	ctx.Count("stage2.results", st.Results)
}

// projectionBytes estimates a buffered projection's memory footprint.
func projectionBytes(p records.Projection) int64 {
	return int64(24 + 4*len(p.Ranks))
}

// stage2JobName keeps the per-variant job names metrics and traces have
// always carried.
func stage2JobName(cfg *Config, rs bool) string {
	kind := "self"
	if rs {
		kind = "rs"
	}
	switch {
	case cfg.BlockMode != NoBlocks:
		return fmt.Sprintf("s2-bk-%s-%s", kind, cfg.BlockMode)
	case cfg.LengthRouting:
		return fmt.Sprintf("s2-bk-%s-lengthrouted", kind)
	}
	return fmt.Sprintf("s2-%s-%s", cfg.Kernel, kind)
}

// runStage2 runs the kernel job — a self-join over one input, or an R-S
// join over (R, S) — and returns the RID-pair output prefix.
func runStage2(cfg *Config, tokenFile, work string, inputs ...string) (string, []*mapreduce.Metrics, error) {
	ps := progSpec{Kind: "s2", TokenFile: tokenFile}
	if len(inputs) == 2 {
		ps.InputR = inputs[0]
	}
	job, err := coreJob(cfg, ps)
	if err != nil {
		return "", nil, err
	}
	job.Name = stage2JobName(cfg, ps.InputR != "")
	job.Inputs = inputs
	job.InputFormat = mapreduce.Text
	job.Output = work + "/s2"
	job.SideFiles = []string{tokenFile}
	m, err := mapreduce.RunContext(cfg.context(), job)
	if err != nil {
		return "", nil, err
	}
	return job.Output, []*mapreduce.Metrics{m}, nil
}
