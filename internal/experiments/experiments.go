// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the scaled-down synthetic workloads.
//
// Methodology (see DESIGN.md §2 for the full substitution argument):
// every MapReduce job executes for real on the host through
// internal/mapreduce; the recorded per-task costs are then scheduled onto
// a virtual N-node cluster (4 map + 4 reduce slots per node, the paper's
// configuration) by internal/cluster, and the reported "running time" is
// the simulated makespan. Jobs are re-run for every cluster size because
// the reducer count (4 × nodes) changes the partitioning, exactly as it
// would on Hadoop.
//
// The workloads mirror the paper's: a DBLP-like corpus (and a
// CITESEERX-like one for R-S joins) increased ×5..×25 with the paper's
// token-shift method. Base sizes default to 1/1000 of the real datasets
// so the full suite runs in minutes; all comparisons are within the
// suite, so only relative behaviour matters.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"fuzzyjoin/internal/cluster"
	"fuzzyjoin/internal/core"
	"fuzzyjoin/internal/datagen"
	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/records"
)

// Params configures the experiment suite.
type Params struct {
	// BaseRecords is the ×1 DBLP-like corpus size (the paper's DBLP has
	// 1.2M records; the default 4800 is 1/250 scale).
	BaseRecords int
	// BaseRecordsS is the ×1 CITESEERX-like corpus size (paper: 1.3M).
	BaseRecordsS int
	// Seed drives all generation.
	Seed int64
	// Threshold is the similarity threshold (paper: 0.80).
	Threshold float64
	// Parallelism bounds host goroutines during job execution (results
	// and recorded costs are unaffected).
	Parallelism int
	// MemoryPerTask models each task's RAM budget, scaled to the
	// scaled-down data. It is what makes OPRJ fail on the largest R-S
	// workloads, as in the paper. 0 disables budgeting.
	MemoryPerTask int64
	// BlockSize is the DFS block (= input split) size; defaults to
	// expBlockSize. Smaller corpora need smaller blocks to keep the
	// split:slot ratios that create the paper's wave structure.
	BlockSize int
}

// DefaultParams returns the configuration used for EXPERIMENTS.md.
func DefaultParams() Params {
	return Params{
		BaseRecords:  4800,
		BaseRecordsS: 5200,
		Seed:         42,
		Threshold:    0.8,
		Parallelism:  1,
		// 5 MiB/task stands in for the paper's 2.5 GB task heap, scaled to
		// the corpus: it fits every stage's working set including the
		// broadcast RID-pair index of self-join OPRJ at ×25 and R-S OPRJ
		// through ×15, and trips — as the paper reports — for R-S OPRJ at
		// ×20 and ×25.
		MemoryPerTask: 5 << 20,
	}
}

func (p *Params) fillDefaults() {
	d := DefaultParams()
	if p.BaseRecords <= 0 {
		p.BaseRecords = d.BaseRecords
	}
	if p.BaseRecordsS <= 0 {
		p.BaseRecordsS = d.BaseRecordsS
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	if p.Threshold <= 0 {
		p.Threshold = d.Threshold
	}
	if p.Parallelism <= 0 {
		p.Parallelism = d.Parallelism
	}
	if p.BlockSize <= 0 {
		p.BlockSize = expBlockSize
	}
}

// expBlockSize keeps map-task counts proportionate to the paper's runs:
// 128 MB blocks turn DBLP×10 (~3 GB) into ~24 splits against 40 map
// slots; 256 KiB blocks give the scaled-down DBLP×10 (~14 MB) ~54 splits
// and CITESEERX×10 (~73 MB) ~280 splits — comparable split:slot ratios.
const expBlockSize = 256 << 10

// workload caches the generated corpora across experiments.
type workload struct {
	p Params
	// base corpora (×1)
	dblp, citeseer []records.Record
	sharedOrder    []string
	// increased corpora, cached by factor
	dblpBy, citeBy map[int][]records.Record
}

func newWorkload(p Params) *workload {
	p.fillDefaults()
	w := &workload{
		p:      p,
		dblpBy: map[int][]records.Record{},
		citeBy: map[int][]records.Record{},
	}
	w.dblp = datagen.Generate(datagen.Spec{
		Records: p.BaseRecords, Seed: p.Seed, Style: datagen.DBLPLike,
	})
	w.citeseer = datagen.GenerateOverlapping(w.dblp, datagen.Spec{
		Records: p.BaseRecordsS, Seed: p.Seed + 1, Style: datagen.CiteseerLike,
		StartRID: uint64(p.BaseRecords) * 100,
	}, 0.5)
	w.sharedOrder = datagen.SharedOrder(w.dblp, w.citeseer)
	return w
}

func (w *workload) dblpTimes(n int) []records.Record {
	if recs, ok := w.dblpBy[n]; ok {
		return recs
	}
	recs := datagen.IncreaseWithOrder(w.dblp, n, w.sharedOrder)
	w.dblpBy[n] = recs
	return recs
}

func (w *workload) citeseerTimes(n int) []records.Record {
	if recs, ok := w.citeBy[n]; ok {
		return recs
	}
	recs := datagen.IncreaseWithOrder(w.citeseer, n, w.sharedOrder)
	w.citeBy[n] = recs
	return recs
}

// stageRun is one stage's executed jobs plus simulated time.
type stageRun struct {
	metrics []*mapreduce.Metrics
	// err is non-nil when the stage failed (e.g. OPRJ out of memory);
	// experiments report such cells as OOM, as the paper does.
	err error
}

// stageSet holds independently-run stage variants for one (workload,
// cluster size) cell; combos are composed from it the way the paper's
// stacked bars are.
type stageSet struct {
	bto, opto          stageRun // stage 1
	bk, pk             stageRun // stage 2 (token order from BTO)
	brj, oprj          stageRun // stage 3 (RID pairs from PK)
	pairs              int64    // final joined pairs (from BRJ)
	stage2ShuffleBytes int64    // PK job shuffle volume (reporting)
	// fs holds the PK job's RID pairs under pkPairs (SkewStats reads
	// them); runStageSet removes every other file, so a cached set holds
	// no corpus.
	fs      *dfs.FS
	pkPairs string
}

// baseCfg builds the core config for one cell.
func (w *workload) baseCfg(fs *dfs.FS, nodes int) core.Config {
	return core.Config{
		FS:          fs,
		Threshold:   w.p.Threshold,
		NumReducers: 4 * nodes, // one reduce task per slot, as in the paper
		Parallelism: w.p.Parallelism,
		MemoryLimit: w.p.MemoryPerTask,
	}
}

// dblpFS writes DBLP×factor as "dblp" into a fresh DFS of nodes nodes.
func (w *workload) dblpFS(factor, nodes int) (*dfs.FS, error) {
	fs := dfs.New(dfs.Options{BlockSize: w.p.BlockSize, Nodes: nodes})
	return fs, mapreduce.WriteTextFile(fs, "dblp", datagen.Lines(w.dblpTimes(factor)))
}

// btoTokens is dblpFS plus the BTO token file of "dblp".
func (w *workload) btoTokens(factor, nodes int) (*dfs.FS, string, error) {
	fs, err := w.dblpFS(factor, nodes)
	if err != nil {
		return nil, "", err
	}
	cfg := w.baseCfg(fs, nodes)
	cfg.TokenOrder, cfg.Work = core.BTO, "bto"
	tokenFile, _, err := core.Stage1(cfg, "dblp")
	return fs, tokenFile, err
}

// runStageSet executes all six stage variants for one cell: a self-join
// of DBLP×factor (inputs "dblp"), or the R-S join DBLP×factor ⋈
// CITESEERX×factor (inputs "dblp", "cite"). Stage 1 orders tokens from
// DBLP, the smaller relation (§4).
func (w *workload) runStageSet(factor, nodes int, inputs ...string) (*stageSet, error) {
	fs := dfs.New(dfs.Options{BlockSize: w.p.BlockSize, Nodes: nodes})
	for _, in := range inputs {
		recs := w.dblpTimes(factor)
		if in == "cite" {
			recs = w.citeseerTimes(factor)
		}
		if err := mapreduce.WriteTextFile(fs, in, datagen.Lines(recs)); err != nil {
			return nil, err
		}
	}
	stage2 := func(cfg core.Config, tokenFile string) (string, []*mapreduce.Metrics, error) {
		if len(inputs) == 2 {
			return core.Stage2RS(cfg, inputs[0], inputs[1], tokenFile)
		}
		return core.Stage2Self(cfg, inputs[0], tokenFile)
	}
	stage3 := func(cfg core.Config, pairs string) (string, []*mapreduce.Metrics, error) {
		if len(inputs) == 2 {
			return core.Stage3RS(cfg, inputs[0], inputs[1], pairs)
		}
		return core.Stage3Self(cfg, inputs[0], pairs)
	}
	set := &stageSet{fs: fs}

	cfg := w.baseCfg(fs, nodes)
	cfg.TokenOrder, cfg.Work = core.BTO, "bto"
	tokenFile, ms, err := core.Stage1(cfg, "dblp")
	if err != nil {
		return nil, fmt.Errorf("BTO: %w", err)
	}
	set.bto = stageRun{metrics: ms}

	cfg.TokenOrder, cfg.Work = core.OPTO, "opto"
	if _, ms, err = core.Stage1(cfg, "dblp"); err != nil {
		return nil, fmt.Errorf("OPTO: %w", err)
	}
	set.opto = stageRun{metrics: ms}

	cfg = w.baseCfg(fs, nodes)
	cfg.Kernel, cfg.Work = core.BK, "bk"
	if _, ms, err = stage2(cfg, tokenFile); err != nil {
		return nil, fmt.Errorf("BK: %w", err)
	}
	set.bk = stageRun{metrics: ms}

	cfg.Kernel, cfg.Work = core.PK, "pk"
	if set.pkPairs, ms, err = stage2(cfg, tokenFile); err != nil {
		return nil, fmt.Errorf("PK: %w", err)
	}
	set.pk = stageRun{metrics: ms}
	for _, m := range ms {
		set.stage2ShuffleBytes += m.TotalShuffleBytes()
	}

	cfg = w.baseCfg(fs, nodes)
	cfg.RecordJoin, cfg.Work = core.BRJ, "brj"
	if _, ms, err = stage3(cfg, set.pkPairs); err != nil {
		return nil, fmt.Errorf("BRJ: %w", err)
	}
	set.brj = stageRun{metrics: ms}
	set.pairs = ms[len(ms)-1].Counters["stage3.pairs"]

	cfg.RecordJoin, cfg.Work = core.OPRJ, "oprj"
	if _, ms, err = stage3(cfg, set.pkPairs); err != nil {
		set.oprj = stageRun{err: err} // expected for R-S at the largest factors
	} else {
		set.oprj = stageRun{metrics: ms}
	}

	for _, name := range fs.List("") {
		if !strings.HasPrefix(name, set.pkPairs+"/") {
			fs.Remove(name)
		}
	}
	return set, nil
}

// Combo identifies an end-to-end algorithm combination.
type Combo struct {
	Stage1 stageKey
	Stage2 stageKey
	Stage3 stageKey
}

type stageKey string

const (
	kBTO  stageKey = "BTO"
	kOPTO stageKey = "OPTO"
	kBK   stageKey = "BK"
	kPK   stageKey = "PK"
	kBRJ  stageKey = "BRJ"
	kOPRJ stageKey = "OPRJ"
)

// PaperCombos are the three combinations the paper plots in every figure.
var PaperCombos = []Combo{
	{kBTO, kBK, kBRJ},
	{kBTO, kPK, kBRJ},
	{kBTO, kPK, kOPRJ},
}

// String renders the combo the way the paper does.
func (c Combo) String() string {
	return fmt.Sprintf("%s-%s-%s", c.Stage1, c.Stage2, c.Stage3)
}

func (s *stageSet) stage(k stageKey) stageRun {
	switch k {
	case kBTO:
		return s.bto
	case kOPTO:
		return s.opto
	case kBK:
		return s.bk
	case kPK:
		return s.pk
	case kBRJ:
		return s.brj
	case kOPRJ:
		return s.oprj
	default:
		panic("experiments: unknown stage key " + string(k))
	}
}

// ComboTime is a combo's simulated per-stage and total running time.
// OOM marks combinations that failed for lack of memory (reported the
// way the paper reports OPRJ at scale).
type ComboTime struct {
	Combo  Combo
	Stages [3]time.Duration
	Total  time.Duration
	OOM    bool
}

// comboTime composes a combo's time from the stage set.
func (s *stageSet) comboTime(c Combo, spec cluster.Spec) ComboTime {
	ct := ComboTime{Combo: c}
	for i, k := range []stageKey{c.Stage1, c.Stage2, c.Stage3} {
		run := s.stage(k)
		if run.err != nil {
			ct.OOM = true
			return ct
		}
		ct.Stages[i] = simulate(spec, run.metrics)
		ct.Total += ct.Stages[i]
	}
	return ct
}

// simulate is the simulated running time of the jobs run one after
// another on the cluster sp.
func simulate(sp cluster.Spec, ms []*mapreduce.Metrics) time.Duration {
	jobs := make([]cluster.JobCost, len(ms))
	for i, m := range ms {
		jobs[i] = cluster.FromMetrics(m)
	}
	return sp.FlowMakespan(jobs)
}

// seconds renders a duration in seconds with two decimals, or "OOM".
func seconds(d time.Duration, oom bool) string {
	if oom {
		return "OOM"
	}
	return fmt.Sprintf("%.2f", d.Seconds())
}

// table renders rows of columns with a header, padded.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < width[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
