package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"fuzzyjoin/internal/keys"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/records"
)

// Stage 3 — record join (§3.3, §4). The RID pairs from Stage 2 — a set:
// Stage 2 emits each pair once (stage2_owner.go), where the paper's
// Stage 3 eliminates duplicates — are joined back with the original
// records to produce complete record pairs. A repeated pair is an error
// (pairAssembleReducer), not something to clean up.
//
// BRJ phase 1 keys: self [rid u64]; R-S [rel u8][rid u64] (RID spaces of
// R and S may overlap, so the relation tags the key). Values carry a tag
// byte so the record (tag 0) sorts before its pair halves (tag 1).
//
// BRJ phase 1 is semi-join-reduced: the coordinator reads Stage 2's
// output once per job and writes, per relation, the sorted distinct RIDs
// that occur in a pair (big-endian u64s; one file for a self-join, R and
// S files for R-S). The map tasks get them as side files and emit only
// the records whose RID is listed, so a record without a pair is never
// shuffled.
//
// Half-pair values (phase 1 output and OPRJ map output):
// [side u8][A u64][B u64][simbits u64][record line]; side 0 is the
// left/R-side record. Phase 2 groups by [A u64][B u64] and zips the two
// sides.

const (
	tagRecord = 0
	tagPair   = 1
)

// appendHalfPair appends the half-pair value to dst.
func appendHalfPair(dst []byte, side byte, p records.RIDPair, line []byte) []byte {
	dst = append(dst, side)
	dst = keys.AppendUint64(dst, p.A)
	dst = keys.AppendUint64(dst, p.B)
	dst = keys.AppendUint64(dst, math.Float64bits(p.Sim))
	return append(dst, line...)
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
	return appendPairGroupKey(nil, p)
}

func appendPairGroupKey(dst []byte, p records.RIDPair) []byte {
	return keys.AppendUint64(keys.AppendUint64(dst, p.A), p.B)
}

// brjPhase1Mapper routes paired records and RID pairs to per-RID reduce
// groups.
type brjPhase1Mapper struct {
	// pairsPrefix identifies the Stage 2 output files.
	pairsPrefix string
	// ridFiles names the paired-RID side files, indexed by relation tag.
	ridFiles []string
	// relOf returns the relation tag for a record input file (always
	// relR for self-joins).
	relOf func(file string) byte
	// rs enables R-S keys.
	rs bool
	// rids views the side files' bytes, indexed by relation tag; tasks
	// share the job's copy and never write it.
	rids [2][]byte
	// key and val are per-task scratch for the pair being emitted.
	key, val []byte
}

// NewTaskInstance gives each map task its own key and value scratch.
func (m *brjPhase1Mapper) NewTaskInstance() any {
	return &brjPhase1Mapper{pairsPrefix: m.pairsPrefix, ridFiles: m.ridFiles, relOf: m.relOf, rs: m.rs}
}

// Setup takes views of the paired-RID sets and charges their bytes to
// the task's memory budget (8 bytes per distinct paired RID).
func (m *brjPhase1Mapper) Setup(ctx *mapreduce.Context) error {
	for rel, name := range m.ridFiles {
		data, err := ctx.SideFile(name)
		if err != nil {
			return err
		}
		if err := ctx.Memory.Alloc(int64(len(data))); err != nil {
			return err
		}
		m.rids[rel] = data
	}
	return nil
}

// paired reports whether rid occurs in a Stage 2 pair of relation rel.
func (m *brjPhase1Mapper) paired(rel byte, rid uint64) bool {
	set, n := m.rids[rel], len(m.rids[rel])/8
	i := sort.Search(n, func(i int) bool { return binary.BigEndian.Uint64(set[i*8:]) >= rid })
	return i < n && binary.BigEndian.Uint64(set[i*8:]) == rid
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
	rel := m.relOf(ctx.InputFile)
	if !m.paired(rel, rid) {
		return nil
	}
	m.val = append(append(reuseScratch(m.val), tagRecord), value...)
	return out.Emit(m.ridKey(rel, rid), m.val)
}

// brjPhase1Reducer joins one record with its RID pairs and emits one
// half-pair per pair.
type brjPhase1Reducer struct {
	rs bool
	// Per-task scratch, reset for every RID group: the record line, and
	// the key and value of the half-pair being emitted (a reduce emitter
	// copies what it is handed into the part writer's buffer before it
	// returns — fileWriter.write — so one key and one value buffer serve
	// every emission).
	line, key, val []byte
}

// NewTaskInstance gives each reduce task its own scratch.
func (r *brjPhase1Reducer) NewTaskInstance() any {
	return &brjPhase1Reducer{rs: r.rs}
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
	var rel byte
	var rid uint64
	if r.rs {
		rel = key[0]
		rid, _ = mustUint64(key[1:])
	} else {
		rid, _ = mustUint64(key)
	}
	if values.Len() == 1 {
		// The mappers emit only paired records: the RID sets disagree
		// with the pairs they were built from.
		return fmt.Errorf("core: record %d without a pair reached phase 1", rid)
	}
	r.line = append(reuseScratch(r.line), v[1:]...)
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		if v[0] != tagRecord {
			p, err := records.DecodeRIDPair(v[1:])
			if err != nil {
				return err
			}
			side := byte(0)
			if r.rs {
				side = rel
			} else if rid != p.A {
				side = 1
			}
			r.key = appendPairGroupKey(r.key[:0], p)
			r.val = appendHalfPair(reuseScratch(r.val), side, p, r.line)
			if err := out.Emit(r.key, r.val); err != nil {
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
// pair, emitted as one text line. A group holds exactly one left and one
// right half; anything else — a pair Stage 2 emitted twice, a RID with no
// record — is an error, never silently zipped.
type pairAssembleReducer struct {
	// Per-task scratch: the two record lines (a value is only valid until
	// the next one is read) and the output line built from their bytes.
	left, right, line []byte
	pairs             int64 // the task's stage3.pairs, counted from Cleanup
}

// NewTaskInstance gives each reduce task its own scratch.
func (*pairAssembleReducer) NewTaskInstance() any { return &pairAssembleReducer{} }

func (r *pairAssembleReducer) Cleanup(ctx *mapreduce.Context, _ mapreduce.Emitter) error {
	countPairs(ctx, r.pairs)
	return nil
}

func (r *pairAssembleReducer) Reduce(ctx *mapreduce.Context, key []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	var lefts, rights int
	var pair records.RIDPair
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		side, p, line, err := decodeHalfPair(v)
		if err != nil {
			return err
		}
		pair = p
		// A half whose record line is empty counts as absent.
		switch {
		case len(line) == 0:
		case side == 0:
			r.left, lefts = append(reuseScratch(r.left), line...), lefts+1
		default:
			r.right, rights = append(reuseScratch(r.right), line...), rights+1
		}
	}
	if lefts != 1 || rights != 1 {
		return fmt.Errorf("core: RID pair (%d, %d) has %d left and %d right halves, want one of each",
			pair.A, pair.B, lefts, rights)
	}
	var err error
	if r.line, err = records.AppendJoinedPair(reuseScratch(r.line), pair.Sim, r.left, r.right); err != nil {
		return err
	}
	r.pairs++
	return out.Emit(nil, r.line)
}

// writeRIDSets reads Stage 2's pairs and writes, per relation, the
// sorted distinct RIDs that occur in a pair as big-endian u64s: one file
// for a self-join (both sides of a pair), R and S files for R-S. It
// returns the files, indexed by relation tag, and the pair bytes read.
func writeRIDSets(cfg *Config, pairsPrefix, work string, rs bool) ([]string, int64, error) {
	var sets [2][]uint64
	relB, files := byte(relR), []string{work + "/s3-rids"}
	if rs {
		relB, files = relS, []string{work + "/s3-rids-r", work + "/s3-rids-s"}
	}
	read, err := WalkRIDPairs(cfg.FS, pairsPrefix, func(p records.RIDPair) error {
		sets[relR] = append(sets[relR], p.A)
		sets[relB] = append(sets[relB], p.B)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	for rel, name := range files {
		slices.Sort(sets[rel])
		rids := slices.Compact(sets[rel])
		if err := writeFixed(cfg, name, len(rids), func(i int, buf []byte) []byte {
			return binary.BigEndian.AppendUint64(buf, rids[i])
		}); err != nil {
			return nil, 0, err
		}
	}
	return files, read, nil
}

// writeFixed creates a DFS file of n fixed-width records; rec appends
// the i-th to an empty buffer.
func writeFixed(cfg *Config, name string, n int, rec func(i int, buf []byte) []byte) error {
	w, err := cfg.FS.Create(name)
	if err != nil {
		return err
	}
	var buf [pairWidth]byte
	for i := range n {
		if err := w.Append(rec(i, buf[:0])); err != nil {
			return err
		}
	}
	return w.Close()
}

// runBRJ runs the two-phase Basic Record Join.
func runBRJ(cfg *Config, recordInputs []string, inputR, pairsPrefix, work string) (string, []*mapreduce.Metrics, error) {
	ridFiles, pairBytes, err := writeRIDSets(cfg, pairsPrefix, work, inputR != "")
	if err != nil {
		return "", nil, err
	}
	half := work + "/s3-half"
	job, err := coreJob(cfg, progSpec{Kind: "s3-brj1", InputR: inputR, PairsPrefix: pairsPrefix, RIDFiles: ridFiles})
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
	job.SideFiles = ridFiles
	m1, err := mapreduce.RunContext(cfg.context(), job)
	if err != nil {
		return "", nil, err
	}
	// The coordinator's read of the pairs is no task; charge it with the
	// broadcast, as OPRJ's pair files are.
	m1.SideBytes += pairBytes
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

// pairWidth is the size of one record of OPRJ's pair files:
// [A u64][B u64][simbits u64], big-endian; its first 16 bytes are the
// pair's group key.
const pairWidth = 24

// writePairFiles reads Stage 2's pairs and writes them as fixed-width
// records twice, sorted by (A, B) and by (B, A). It returns the two
// files and the pair bytes read.
func writePairFiles(cfg *Config, pairsPrefix, work string) ([]string, int64, error) {
	var pairs []records.RIDPair
	read, err := WalkRIDPairs(cfg.FS, pairsPrefix, func(p records.RIDPair) error {
		pairs = append(pairs, p)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	files := []string{work + "/s3-pairs-a", work + "/s3-pairs-b"}
	for side, name := range files {
		slices.SortFunc(pairs, func(p, q records.RIDPair) int {
			if side == 1 { // by (B, A)
				p.A, p.B, q.A, q.B = p.B, p.A, q.B, q.A
			}
			return cmp.Or(cmp.Compare(p.A, q.A), cmp.Compare(p.B, q.B))
		})
		if err := writeFixed(cfg, name, len(pairs), func(i int, buf []byte) []byte {
			return keys.AppendUint64(appendPairGroupKey(buf, pairs[i]), math.Float64bits(pairs[i].Sim))
		}); err != nil {
			return nil, 0, err
		}
	}
	return files, read, nil
}

// oprjMapper joins in the map phase against the broadcast RID pairs
// (§3.3.2): each task binary-searches the pair files in place.
type oprjMapper struct {
	// pairFiles names the pair files sorted by A and by B.
	pairFiles []string
	relOf     func(file string) byte
	rs        bool
	// views are the pair files' bytes; tasks share them and never write.
	views [2][]byte
	// val is per-task scratch for the half-pair being emitted.
	val []byte
}

// NewTaskInstance gives each map task its own views and value scratch.
func (m *oprjMapper) NewTaskInstance() any {
	return &oprjMapper{pairFiles: m.pairFiles, relOf: m.relOf, rs: m.rs}
}

// Setup takes views of the pair files and charges 96 B per pair — the
// views counted twice over, modelling the paper's per-task hash index on
// the pairs. At scale this is the algorithm's documented failure mode.
func (m *oprjMapper) Setup(ctx *mapreduce.Context) error {
	for side, name := range m.pairFiles {
		data, err := ctx.SideFile(name)
		if err != nil {
			return err
		}
		if len(data)%pairWidth != 0 {
			return fmt.Errorf("core: pair file %s holds %d bytes, not a multiple of %d", name, len(data), pairWidth)
		}
		if err := ctx.Memory.Alloc(2 * int64(len(data))); err != nil {
			return err
		}
		m.views[side] = data
	}
	return nil
}

// Map emits a half-pair per pair whose A (side 0) or B (side 1) is the
// record's RID; an R-S record only looks up its relation's side.
func (m *oprjMapper) Map(ctx *mapreduce.Context, _, value []byte, out mapreduce.Emitter) error {
	rid, err := records.RID(value)
	if err != nil {
		return err
	}
	for side := range byte(2) {
		if m.rs && side != m.relOf(ctx.InputFile) {
			continue
		}
		view, field, n := m.views[side], 8*int(side), len(m.views[side])/pairWidth
		i := sort.Search(n, func(i int) bool { return binary.BigEndian.Uint64(view[i*pairWidth+field:]) >= rid })
		for ; i < n && binary.BigEndian.Uint64(view[i*pairWidth+field:]) == rid; i++ {
			rec := view[i*pairWidth : (i+1)*pairWidth]
			m.val = append(append(append(reuseScratch(m.val), side), rec...), value...)
			if err := out.Emit(rec[:16], m.val); err != nil {
				return err
			}
		}
	}
	return nil
}

// runOPRJ runs the One-Phase Record Join.
func runOPRJ(cfg *Config, recordInputs []string, inputR, pairsPrefix, work string) (string, []*mapreduce.Metrics, error) {
	pairFiles, pairBytes, err := writePairFiles(cfg, pairsPrefix, work)
	if err != nil {
		return "", nil, err
	}
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
	m.SideBytes += pairBytes // the coordinator's read, as in runBRJ
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
