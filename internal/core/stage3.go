package core

import (
	"fmt"
	"math"
	"strings"

	"fuzzyjoin/internal/keys"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/records"
)

// Stage 3 — record join (§3.3, §4). The RID pairs from Stage 2 (possibly
// with duplicates, which this stage eliminates) are joined back with the
// original records to produce complete record pairs.
//
// BRJ phase 1 keys: self [rid u64]; R-S [rel u8][rid u64] (RID spaces of
// R and S may overlap, so the relation tags the key). Values carry a tag
// byte so the record (tag 0) sorts before its pair halves (tag 1).
//
// Half-pair values (phase 1 output and OPRJ map output):
// [side u8][A u64][B u64][simbits u64][record line]; side 0 is the
// left/R-side record. Phase 2 groups by [A u64][B u64] and zips the two
// sides.

const (
	tagRecord = 0
	tagPair   = 1
)

// encodeHalfPair builds the half-pair value.
func encodeHalfPair(side byte, p records.RIDPair, line []byte) []byte {
	v := make([]byte, 0, 25+len(line))
	v = append(v, side)
	v = keys.AppendUint64(v, p.A)
	v = keys.AppendUint64(v, p.B)
	v = keys.AppendUint64(v, math.Float64bits(p.Sim))
	return append(v, line...)
}

func decodeHalfPair(v []byte) (side byte, p records.RIDPair, line []byte, err error) {
	if len(v) < 25 {
		return 0, records.RIDPair{}, nil, fmt.Errorf("core: malformed half pair of %d bytes", len(v))
	}
	side = v[0]
	p.A, _ = mustUint64(v[1:])
	p.B, _ = mustUint64(v[9:])
	bits, _ := mustUint64(v[17:])
	p.Sim = math.Float64frombits(bits)
	return side, p, v[25:], nil
}

func mustUint64(b []byte) (uint64, []byte) {
	v, rest, err := keys.Uint64(b)
	if err != nil {
		panic(err)
	}
	return v, rest
}

func pairGroupKey(p records.RIDPair) []byte {
	return keys.AppendUint64(keys.AppendUint64(nil, p.A), p.B)
}

// brjPhase1Mapper routes records and RID pairs to per-RID reduce groups.
type brjPhase1Mapper struct {
	// pairsPrefix identifies the Stage 2 output files.
	pairsPrefix string
	// relOf returns the relation tag for a record input file (always
	// relR for self-joins).
	relOf func(file string) byte
	// rs enables R-S keys.
	rs bool
	// key and val are per-task scratch for the pair being emitted.
	key, val []byte
}

// NewTaskInstance gives each map task its own key and value scratch.
func (m *brjPhase1Mapper) NewTaskInstance() any {
	return &brjPhase1Mapper{pairsPrefix: m.pairsPrefix, relOf: m.relOf, rs: m.rs}
}

func (m *brjPhase1Mapper) ridKey(rel byte, rid uint64) []byte {
	m.key = m.key[:0]
	if m.rs {
		m.key = append(m.key, rel)
	}
	m.key = keys.AppendUint64(m.key, rid)
	return m.key
}

func (m *brjPhase1Mapper) Map(ctx *mapreduce.Context, _, value []byte, out mapreduce.Emitter) error {
	if strings.HasPrefix(ctx.InputFile, m.pairsPrefix) {
		p, err := records.DecodeRIDPair(value)
		if err != nil {
			return err
		}
		m.val = p.AppendBinary(append(m.val[:0], tagPair))
		if err := out.Emit(m.ridKey(relR, p.A), m.val); err != nil {
			return err
		}
		return out.Emit(m.ridKey(relS, p.B), m.val)
	}
	rid, err := records.RID(value)
	if err != nil {
		return err
	}
	m.val = append(append(reuseScratch(m.val), tagRecord), value...)
	return out.Emit(m.ridKey(m.relOf(ctx.InputFile), rid), m.val)
}

// brjPhase1Reducer joins one record with its RID pairs, deduplicating
// pairs, and emits one half-pair per distinct pair.
type brjPhase1Reducer struct {
	rs bool
}

func (r *brjPhase1Reducer) Reduce(ctx *mapreduce.Context, key []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	v, ok := values.Next()
	if !ok {
		return nil
	}
	if v[0] != tagRecord {
		// Pairs with no matching record: Stage 2 only emits RIDs it saw
		// in the input, so this indicates corrupt input.
		return fmt.Errorf("core: RID group %x has pairs but no record", key)
	}
	if values.Len() == 1 {
		// Most records have no pair at all: nothing to join, and no need
		// for the line copy and the dedup set below.
		return nil
	}
	line := append([]byte(nil), v[1:]...)
	var rel byte
	var rid uint64
	if r.rs {
		rel = key[0]
		rid, _ = mustUint64(key[1:])
	} else {
		rid, _ = mustUint64(key)
	}

	seen := make(map[records.RIDPair]bool)
	var held int64
	defer func() { ctx.Memory.Free(held) }()
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		if v[0] != tagRecord {
			p, err := records.DecodeRIDPair(v[1:])
			if err != nil {
				return err
			}
			if seen[p] {
				ctx.Count("stage3.duplicate_pairs", 1)
				continue
			}
			if err := ctx.Memory.Alloc(48); err != nil {
				return err
			}
			held += 48
			seen[p] = true
			side := byte(0)
			if r.rs {
				side = rel
			} else if rid != p.A {
				side = 1
			}
			if err := out.Emit(pairGroupKey(p), encodeHalfPair(side, p, line)); err != nil {
				return err
			}
			continue
		}
		return fmt.Errorf("core: duplicate record for RID group %x", key)
	}
	return nil
}

// pairAssembleReducer is the final reducer shared by BRJ phase 2 and
// OPRJ: it zips the two half-pairs of each RID pair into a joined record
// pair, emitted as one text line.
type pairAssembleReducer struct{}

func (pairAssembleReducer) Reduce(ctx *mapreduce.Context, key []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	var left, right []byte
	var sim float64
	n := 0
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		side, p, line, err := decodeHalfPair(v)
		if err != nil {
			return err
		}
		sim = p.Sim
		n++
		if side == 0 {
			left = append([]byte(nil), line...)
		} else {
			right = append([]byte(nil), line...)
		}
	}
	if left == nil || right == nil {
		return fmt.Errorf("core: RID pair %x missing a side (%d halves)", key, n)
	}
	l, err := records.ParseLine(string(left))
	if err != nil {
		return err
	}
	rt, err := records.ParseLine(string(right))
	if err != nil {
		return err
	}
	jp := records.JoinedPair{Left: l, Right: rt, Sim: sim}
	ctx.Count("stage3.pairs", 1)
	return out.Emit(nil, []byte(jp.String()))
}

// runBRJ runs the two-phase Basic Record Join.
func runBRJ(cfg *Config, recordInputs []string, inputR, pairsPrefix, work string) (string, []*mapreduce.Metrics, error) {
	half := work + "/s3-half"
	job, err := coreJob(cfg, progSpec{Kind: "s3-brj1", InputR: inputR, PairsPrefix: pairsPrefix})
	if err != nil {
		return "", nil, err
	}
	job.Name = "s3-brj-1"
	job.Inputs = append(append([]string(nil), recordInputs...), pairsPrefix+"/")
	job.InputFormat = mapreduce.Text
	job.InputFormatsByPrefix = map[string]mapreduce.Format{
		pairsPrefix + "/": mapreduce.Pairs,
	}
	job.Output = half
	m1, err := mapreduce.RunContext(cfg.context(), job)
	if err != nil {
		return "", nil, err
	}
	out := work + "/out"
	job, err = coreJob(cfg, progSpec{Kind: "s3-brj2"})
	if err != nil {
		return "", nil, err
	}
	job.Name = "s3-brj-2"
	job.Inputs = []string{half + "/"}
	job.InputFormat = mapreduce.Pairs
	job.Output = out
	job.OutputFormat = mapreduce.Text
	m2, err := mapreduce.RunContext(cfg.context(), job)
	if err != nil {
		return "", nil, err
	}
	return out, []*mapreduce.Metrics{m1, m2}, nil
}

// oprjMapper broadcasts the RID-pair list, indexes it per task, and joins
// in the map phase (§3.3.2). The pair index is charged to the memory
// budget — at scale this is the algorithm's documented failure mode.
type oprjMapper struct {
	pairFiles []string
	relOf     func(file string) byte
	rs        bool

	byA, byB map[uint64][]records.RIDPair
}

// NewTaskInstance gives each map task its own pair index (§3.3.2: every
// map task loads and indexes the broadcast RID pairs).
func (m *oprjMapper) NewTaskInstance() any {
	return &oprjMapper{pairFiles: m.pairFiles, relOf: m.relOf, rs: m.rs}
}

func (m *oprjMapper) Setup(ctx *mapreduce.Context) error {
	m.byA = make(map[uint64][]records.RIDPair)
	m.byB = make(map[uint64][]records.RIDPair)
	seen := make(map[records.RIDPair]bool)
	for _, name := range m.pairFiles {
		data, err := ctx.SideFile(name)
		if err != nil {
			return err
		}
		if err := decodePairsData(data, func(p records.RIDPair) error {
			if seen[p] {
				return nil
			}
			seen[p] = true
			// Charge the two index postings plus the dedup entry.
			if err := ctx.Memory.Alloc(96); err != nil {
				return err
			}
			m.byA[p.A] = append(m.byA[p.A], p)
			m.byB[p.B] = append(m.byB[p.B], p)
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// decodePairsData iterates the RID pairs of a Pairs-format side file.
func decodePairsData(data []byte, fn func(records.RIDPair) error) error {
	return mapreduce.DecodePairsBlock(data, func(_, v []byte) error {
		p, err := records.DecodeRIDPair(v)
		if err != nil {
			return err
		}
		return fn(p)
	})
}

func (m *oprjMapper) Map(ctx *mapreduce.Context, _, value []byte, out mapreduce.Emitter) error {
	rid, err := records.RID(value)
	if err != nil {
		return err
	}
	rel := m.relOf(ctx.InputFile)
	if !m.rs || rel == relR {
		for _, p := range m.byA[rid] {
			side := byte(0)
			if err := out.Emit(pairGroupKey(p), encodeHalfPair(side, p, value)); err != nil {
				return err
			}
		}
	}
	if !m.rs {
		for _, p := range m.byB[rid] {
			if err := out.Emit(pairGroupKey(p), encodeHalfPair(1, p, value)); err != nil {
				return err
			}
		}
	} else if rel == relS {
		for _, p := range m.byB[rid] {
			if err := out.Emit(pairGroupKey(p), encodeHalfPair(1, p, value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// runOPRJ runs the One-Phase Record Join.
func runOPRJ(cfg *Config, recordInputs []string, inputR, pairsPrefix, work string) (string, []*mapreduce.Metrics, error) {
	pairFiles := cfg.FS.List(pairsPrefix + "/")
	out := work + "/out"
	job, err := coreJob(cfg, progSpec{Kind: "s3-oprj", InputR: inputR, PairFiles: pairFiles})
	if err != nil {
		return "", nil, err
	}
	job.Name = "s3-oprj"
	job.Inputs = recordInputs
	job.InputFormat = mapreduce.Text
	job.Output = out
	job.OutputFormat = mapreduce.Text
	job.SideFiles = pairFiles
	m, err := mapreduce.RunContext(cfg.context(), job)
	if err != nil {
		return "", nil, err
	}
	return out, []*mapreduce.Metrics{m}, nil
}

// runStage3 dispatches on the configured record-join algorithm over the
// record inputs — one for a self-join, (R, S) for an R-S join, where the
// R file identifies the R records (relation tags come from exact
// comparison against it).
func runStage3(cfg *Config, pairsPrefix, work string, inputs ...string) (string, []*mapreduce.Metrics, error) {
	inputR := ""
	if len(inputs) == 2 {
		inputR = inputs[0]
	}
	if cfg.RecordJoin == OPRJ {
		return runOPRJ(cfg, inputs, inputR, pairsPrefix, work)
	}
	return runBRJ(cfg, inputs, inputR, pairsPrefix, work)
}
