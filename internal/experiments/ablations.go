package experiments

import (
	"fmt"
	"math"
	"time"

	"fuzzyjoin/internal/core"
	"fuzzyjoin/internal/datagen"
	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/records"
)

// ---- §6.1.1 (in text): number of token groups ---------------------------

// GroupAblationResult reproduces the in-text study of Stage 2 routing:
// "We evaluated the running time for different numbers of groups. We
// observed that the best performance was achieved when there was one
// group per token."
type GroupAblationResult struct {
	TokenCount int
	// Groups[i] is the group count (TokenCount means one group per
	// token, i.e. individual routing).
	Groups   []int
	Times    []time.Duration
	Replicas []int64
}

// GroupAblation sweeps the group count for the PK kernel on DBLP×10 at
// 10 nodes.
func (s *Suite) GroupAblation() (*GroupAblationResult, error) {
	const factor, nodes = 10, 10
	fs := dfs.New(dfs.Options{BlockSize: s.w.p.BlockSize, Nodes: nodes})
	if err := mapreduce.WriteTextFile(fs, "dblp", datagen.Lines(s.w.dblpTimes(factor))); err != nil {
		return nil, err
	}
	cfg := s.w.baseCfg(fs, nodes)
	cfg.TokenOrder, cfg.Work = core.BTO, "bto"
	tokenFile, _, err := core.Stage1(cfg, "dblp")
	if err != nil {
		return nil, err
	}
	data, err := fs.ReadAll(tokenFile)
	if err != nil {
		return nil, err
	}
	tokens := 0
	for _, b := range data {
		if b == '\n' {
			tokens++
		}
	}

	res := &GroupAblationResult{TokenCount: tokens}
	for _, g := range []int{16, 64, 256, 1024, 4096, tokens} {
		if g > tokens {
			continue
		}
		cfg := s.w.baseCfg(fs, nodes)
		cfg.Kernel = core.PK
		cfg.Work = fmt.Sprintf("ga-%d", g)
		if g == tokens {
			cfg.Routing = core.IndividualTokens
		} else {
			cfg.Routing, cfg.NumGroups = core.GroupedTokens, g
		}
		_, ms, err := core.Stage2Self(cfg, "dblp", tokenFile)
		if err != nil {
			return nil, err
		}
		t := simulate(spec(nodes), ms)
		var reps int64
		for _, m := range ms {
			reps += m.Counters["stage2.replicas"]
		}
		res.Groups = append(res.Groups, g)
		res.Times = append(res.Times, t)
		res.Replicas = append(res.Replicas, reps)
	}
	return res, nil
}

// Render prints the sweep.
func (r *GroupAblationResult) Render() string {
	header := []string{"groups", "stage2(s)", "replicas"}
	var rows [][]string
	for i, g := range r.Groups {
		label := fmt.Sprintf("%d", g)
		if g == r.TokenCount {
			label += " (one per token)"
		}
		rows = append(rows, []string{label, seconds(r.Times[i], false),
			fmt.Sprintf("%d", r.Replicas[i])})
	}
	return fmt.Sprintf("Token-group ablation (§6.1.1), PK kernel, DBLP x10, 10 nodes; %d tokens\n",
		r.TokenCount) + table(header, rows)
}

// ---- §6.1.1 (in text): Stage 3 skew statistics --------------------------

// SkewStatsResult reproduces the paper's Stage 3 skew analysis: the
// frequency of each RID among joining pairs (paper: mean 3.74, σ 14.85,
// max 187) and the records processed per reduce instance in BRJ's first
// job (paper: min 81,662 / max 90,560 / mean 87,166 / σ 2,519).
type SkewStatsResult struct {
	PairCount                 int
	RIDMean, RIDStddev        float64
	RIDMax                    int
	RecMin, RecMax            int64
	RecMean, RecStddev        float64
	Reducers                  int
	SlowestOverMeanReduceCost float64
}

// SkewStats measures the self-join DBLP×10 run at 10 nodes.
func (s *Suite) SkewStats() (*SkewStatsResult, error) {
	const factor, nodes = 10, 10
	set, err := s.selfSet(factor, nodes)
	if err != nil {
		return nil, err
	}
	// Stage 2 emits every pair once, so its output is the distinct pairs.
	raw, err := mapreduce.ReadOutputPairs(set.fs, set.pkPairs+"/")
	if err != nil {
		return nil, err
	}
	freq := map[uint64]int{}
	for _, kv := range raw {
		p, err := records.DecodeRIDPair(kv.Value)
		if err != nil {
			return nil, err
		}
		freq[p.A]++
		freq[p.B]++
	}
	res := &SkewStatsResult{PairCount: len(raw)}
	var sum, sumSq float64
	for _, n := range freq {
		sum += float64(n)
		sumSq += float64(n) * float64(n)
		if n > res.RIDMax {
			res.RIDMax = n
		}
	}
	if len(freq) > 0 {
		res.RIDMean = sum / float64(len(freq))
		res.RIDStddev = math.Sqrt(sumSq/float64(len(freq)) - res.RIDMean*res.RIDMean)
	}

	// Records per reduce instance in BRJ's first job.
	brj := set.brj.metrics[0]
	res.Reducers = len(brj.ReduceTasks)
	var rSum, rSumSq float64
	res.RecMin = math.MaxInt64
	var maxCost, costSum time.Duration
	for _, rt := range brj.ReduceTasks {
		n := rt.InputRecords
		if n < res.RecMin {
			res.RecMin = n
		}
		if n > res.RecMax {
			res.RecMax = n
		}
		rSum += float64(n)
		rSumSq += float64(n) * float64(n)
		if rt.Cost > maxCost {
			maxCost = rt.Cost
		}
		costSum += rt.Cost
	}
	if res.Reducers > 0 {
		res.RecMean = rSum / float64(res.Reducers)
		res.RecStddev = math.Sqrt(rSumSq/float64(res.Reducers) - res.RecMean*res.RecMean)
		mean := costSum / time.Duration(res.Reducers)
		if mean > 0 {
			res.SlowestOverMeanReduceCost = float64(maxCost) / float64(mean)
		}
	}
	return res, nil
}

// Render prints the statistics.
func (r *SkewStatsResult) Render() string {
	return fmt.Sprintf(`Stage 3 skew statistics (§6.1.1), self-join DBLP x10, 10 nodes
distinct RID pairs:          %d
RID frequency in pairs:      mean %.2f  stddev %.2f  max %d
BRJ job-1 reduce input recs: min %d  max %d  mean %.1f  stddev %.1f (%d reducers)
slowest/mean reduce cost:    %.2f
`, r.PairCount, r.RIDMean, r.RIDStddev, r.RIDMax,
		r.RecMin, r.RecMax, r.RecMean, r.RecStddev, r.Reducers,
		r.SlowestOverMeanReduceCost)
}

// ---- §5: block processing -------------------------------------------------

// BlockProcessingResult reproduces the §5 behaviour: both strategies
// compute the same join as the unblocked kernel; map-based replicates
// projections, reduce-based spills to local disk.
type BlockProcessingResult struct {
	Modes      []string
	Times      []time.Duration
	Replicas   []int64
	SpillBytes []int64
	Pairs      []int
}

// BlockProcessing compares the §5 strategies for the BK kernel on DBLP×5
// at 10 nodes: no blocking, map-based blocks, reduce-based blocks, and
// the length filter as a secondary routing criterion.
func (s *Suite) BlockProcessing() (*BlockProcessingResult, error) {
	const factor, nodes, blocks = 5, 10, 4
	fs := dfs.New(dfs.Options{BlockSize: s.w.p.BlockSize, Nodes: nodes})
	if err := mapreduce.WriteTextFile(fs, "dblp", datagen.Lines(s.w.dblpTimes(factor))); err != nil {
		return nil, err
	}
	base := s.w.baseCfg(fs, nodes)
	base.TokenOrder, base.Work = core.BTO, "bto"
	tokenFile, _, err := core.Stage1(base, "dblp")
	if err != nil {
		return nil, err
	}

	res := &BlockProcessingResult{}
	variants := []struct {
		label string
		apply func(*core.Config)
	}{
		{"none", func(*core.Config) {}},
		{"map-based", func(c *core.Config) { c.BlockMode, c.NumBlocks = core.MapBlocks, blocks }},
		{"reduce-based", func(c *core.Config) { c.BlockMode, c.NumBlocks = core.ReduceBlocks, blocks }},
		{"length-routed", func(c *core.Config) { c.LengthRouting = true }},
	}
	for _, v := range variants {
		cfg := s.w.baseCfg(fs, nodes)
		cfg.Kernel = core.BK
		v.apply(&cfg)
		cfg.Work = "bp-" + v.label
		prefix, ms, err := core.Stage2Self(cfg, "dblp", tokenFile)
		if err != nil {
			return nil, err
		}
		t := simulate(spec(nodes), ms)
		var reps, spill int64
		for _, m := range ms {
			reps += m.Counters["stage2.replicas"]
			spill += m.Counters["stage2.spill_bytes"]
		}
		n, err := distinctPairs(fs, prefix)
		if err != nil {
			return nil, err
		}
		res.Modes = append(res.Modes, v.label)
		res.Times = append(res.Times, t)
		res.Replicas = append(res.Replicas, reps)
		res.SpillBytes = append(res.SpillBytes, spill)
		res.Pairs = append(res.Pairs, n)
	}
	return res, nil
}

func distinctPairs(fs *dfs.FS, prefix string) (int, error) {
	raw, err := mapreduce.ReadOutputPairs(fs, prefix+"/")
	if err != nil {
		return 0, err
	}
	seen := map[records.RIDPair]bool{}
	for _, kv := range raw {
		p, err := records.DecodeRIDPair(kv.Value)
		if err != nil {
			return 0, err
		}
		seen[p] = true
	}
	return len(seen), nil
}

// Render prints the comparison.
func (r *BlockProcessingResult) Render() string {
	header := []string{"mode", "stage2(s)", "replicas", "spill(B)", "distinct pairs"}
	var rows [][]string
	for i, m := range r.Modes {
		rows = append(rows, []string{m, seconds(r.Times[i], false),
			fmt.Sprintf("%d", r.Replicas[i]), fmt.Sprintf("%d", r.SpillBytes[i]),
			fmt.Sprintf("%d", r.Pairs[i])})
	}
	return "Block processing (§5), BK kernel, DBLP x5, 10 nodes, 4 blocks\n" + table(header, rows)
}

// ---- design-choice ablations beyond the paper ---------------------------

// KernelAblationResult compares the Stage 2 kernels and filter stacks:
// candidate counts, verifications, and simulated time.
type KernelAblationResult struct {
	Title      string
	Rows       []string
	Times      []time.Duration
	Candidates []int64
	// Materialized is stage2.candidates_materialized: the candidate
	// pairs a kernel actually buffered before verification (BK and PK
	// materialize every candidate; FVT none).
	Materialized []int64
	// BitmapRejected is stage2.bitmap_rejected: the pairs the bitmap
	// filter kept from the merge. PK and FVT test the pairs that survived
	// the row's filter stack; BK tests every pair in its length window,
	// ahead of the prefix scan.
	BitmapRejected []int64
	Verified       []int64
	Results        []int64
}

// Render prints the comparison.
func (r *KernelAblationResult) Render() string {
	header := []string{"variant", "stage2(s)", "candidates", "materialized", "bitmap rej.", "verified", "results"}
	var rows [][]string
	for i, label := range r.Rows {
		rows = append(rows, []string{label, seconds(r.Times[i], false),
			fmt.Sprintf("%d", r.Candidates[i]), fmt.Sprintf("%d", r.Materialized[i]),
			fmt.Sprintf("%d", r.BitmapRejected[i]),
			fmt.Sprintf("%d", r.Verified[i]), fmt.Sprintf("%d", r.Results[i])})
	}
	return r.Title + "\n" + table(header, rows)
}

// FilterAblation measures the contribution of each kernel filter on top
// of the prefix filter (PK kernel, DBLP×10, 10 nodes).
func (s *Suite) FilterAblation() (*KernelAblationResult, error) {
	stacks := []struct {
		label string
		stack filter.Stack
	}{
		{"prefix only", filter.Stack{}},
		{"+length", filter.Stack{Length: true}},
		{"+positional", filter.Stack{Length: true, Positional: true}},
		{"+suffix (full)", filter.AllFilters},
	}
	res := &KernelAblationResult{Title: "Filter ablation, PK kernel, DBLP x10, 10 nodes"}
	return s.kernelVariants(res, func(i int, cfg *core.Config) (string, bool) {
		if i >= len(stacks) {
			return "", false
		}
		cfg.Kernel = core.PK
		cfg.Filters = &stacks[i].stack
		return stacks[i].label, true
	})
}

// KernelStats compares BK, PK, and FVT with the full filter stack.
func (s *Suite) KernelStats() (*KernelAblationResult, error) {
	res := &KernelAblationResult{Title: "Kernel comparison, DBLP x10, 10 nodes"}
	kernels := []core.KernelAlg{core.BK, core.PK, core.FVT}
	return s.kernelVariants(res, func(i int, cfg *core.Config) (string, bool) {
		if i >= len(kernels) {
			return "", false
		}
		cfg.Kernel = kernels[i]
		return kernels[i].String(), true
	})
}

// RoutingAblation compares individual-token and grouped-token routing for
// both kernels.
func (s *Suite) RoutingAblation() (*KernelAblationResult, error) {
	type variant struct {
		label   string
		kernel  core.KernelAlg
		routing core.Routing
		groups  int
	}
	variants := []variant{
		{"BK individual", core.BK, core.IndividualTokens, 0},
		{"BK grouped/256", core.BK, core.GroupedTokens, 256},
		{"PK individual", core.PK, core.IndividualTokens, 0},
		{"PK grouped/256", core.PK, core.GroupedTokens, 256},
	}
	res := &KernelAblationResult{Title: "Routing ablation, DBLP x10, 10 nodes"}
	return s.kernelVariants(res, func(i int, cfg *core.Config) (string, bool) {
		if i >= len(variants) {
			return "", false
		}
		v := variants[i]
		cfg.Kernel, cfg.Routing, cfg.NumGroups = v.kernel, v.routing, v.groups
		return v.label, true
	})
}

// kernelVariants runs Stage 2 once per variant on a shared ×10 input.
func (s *Suite) kernelVariants(res *KernelAblationResult, pick func(int, *core.Config) (string, bool)) (*KernelAblationResult, error) {
	const factor, nodes = 10, 10
	fs := dfs.New(dfs.Options{BlockSize: s.w.p.BlockSize, Nodes: nodes})
	if err := mapreduce.WriteTextFile(fs, "dblp", datagen.Lines(s.w.dblpTimes(factor))); err != nil {
		return nil, err
	}
	base := s.w.baseCfg(fs, nodes)
	base.TokenOrder, base.Work = core.BTO, "bto"
	tokenFile, _, err := core.Stage1(base, "dblp")
	if err != nil {
		return nil, err
	}
	for i := 0; ; i++ {
		cfg := s.w.baseCfg(fs, nodes)
		label, ok := pick(i, &cfg)
		if !ok {
			break
		}
		cfg.Work = fmt.Sprintf("kv-%d", i)
		_, ms, err := core.Stage2Self(cfg, "dblp", tokenFile)
		if err != nil {
			return nil, err
		}
		t := simulate(spec(nodes), ms)
		var cand, mat, rej, ver, results int64
		for _, m := range ms {
			cand += m.Counters["stage2.candidates"]
			mat += m.Counters["stage2.candidates_materialized"]
			rej += m.Counters["stage2.bitmap_rejected"]
			ver += m.Counters["stage2.verified"]
			results += m.Counters["stage2.results"]
		}
		res.Rows = append(res.Rows, label)
		res.Times = append(res.Times, t)
		res.Candidates = append(res.Candidates, cand)
		res.Materialized = append(res.Materialized, mat)
		res.BitmapRejected = append(res.BitmapRejected, rej)
		res.Verified = append(res.Verified, ver)
		res.Results = append(res.Results, results)
	}
	return res, nil
}

// CombinerAblationResult compares Stage 1 with per-task aggregation on
// and off (Config.NoCombiner): what the paper credits to combiners.
type CombinerAblationResult struct {
	Labels       []string
	Times        []time.Duration
	ShuffleBytes []int64
}

// CombinerAblation measures BTO on DBLP×10 at 10 nodes.
func (s *Suite) CombinerAblation() (*CombinerAblationResult, error) {
	const factor, nodes = 10, 10
	res := &CombinerAblationResult{}
	for _, noCombiner := range []bool{false, true} {
		fs := dfs.New(dfs.Options{BlockSize: s.w.p.BlockSize, Nodes: nodes})
		if err := mapreduce.WriteTextFile(fs, "dblp", datagen.Lines(s.w.dblpTimes(factor))); err != nil {
			return nil, err
		}
		cfg := s.w.baseCfg(fs, nodes)
		cfg.TokenOrder, cfg.Work, cfg.NoCombiner = core.BTO, "bto", noCombiner
		_, ms, err := core.Stage1(cfg, "dblp")
		if err != nil {
			return nil, err
		}
		t := simulate(spec(nodes), ms)
		var sh int64
		for _, m := range ms {
			sh += m.TotalShuffleBytes()
		}
		label := "per-task aggregation on"
		if noCombiner {
			label = "per-task aggregation off"
		}
		res.Labels = append(res.Labels, label)
		res.Times = append(res.Times, t)
		res.ShuffleBytes = append(res.ShuffleBytes, sh)
	}
	return res, nil
}

// Render prints the comparison.
func (r *CombinerAblationResult) Render() string {
	header := []string{"variant", "stage1(s)", "shuffle(B)"}
	var rows [][]string
	for i, l := range r.Labels {
		rows = append(rows, []string{l, seconds(r.Times[i], false),
			fmt.Sprintf("%d", r.ShuffleBytes[i])})
	}
	return "Per-task aggregation on/off (combiner ablation), BTO, DBLP x10, 10 nodes\n" + table(header, rows)
}

// ---- §2.2 (in text): the carry-complete-records alternative --------------

// SingleStageResult reproduces the paper's rejected design: one stage
// carrying complete records instead of Stage 2 + Stage 3 over
// projections. The paper: "We implemented this alternative and noticed a
// much worse performance."
type SingleStageResult struct {
	Labels       []string
	Times        []time.Duration
	ShuffleBytes []int64
	Pairs        []int64
}

// SingleStage compares the alternative against BTO-PK-BRJ on DBLP×10 at
// 10 nodes.
func (s *Suite) SingleStage() (*SingleStageResult, error) {
	const factor, nodes = 10, 10
	res := &SingleStageResult{}

	fs := dfs.New(dfs.Options{BlockSize: s.w.p.BlockSize, Nodes: nodes})
	if err := mapreduce.WriteTextFile(fs, "dblp", datagen.Lines(s.w.dblpTimes(factor))); err != nil {
		return nil, err
	}
	cfg := s.w.baseCfg(fs, nodes)
	cfg.Work = "ts"
	cfg.Kernel = core.PK
	three, err := core.SelfJoin(cfg, "dblp")
	if err != nil {
		return nil, err
	}
	cfg = s.w.baseCfg(fs, nodes)
	cfg.Work = "ss"
	single, err := core.SingleStageSelfJoin(cfg, "dblp")
	if err != nil {
		return nil, err
	}

	for _, run := range []struct {
		label string
		r     *core.Result
	}{
		{"three-stage (BTO-PK-BRJ)", three},
		{"single-stage (carry records)", single},
	} {
		t := simulate(spec(nodes), run.r.AllJobs())
		var sh int64
		for _, m := range run.r.AllJobs() {
			sh += m.TotalShuffleBytes()
		}
		res.Labels = append(res.Labels, run.label)
		res.Times = append(res.Times, t)
		res.ShuffleBytes = append(res.ShuffleBytes, sh)
		res.Pairs = append(res.Pairs, run.r.Pairs)
	}
	return res, nil
}

// Render prints the comparison.
func (r *SingleStageResult) Render() string {
	header := []string{"design", "total(s)", "shuffle(B)", "pairs"}
	var rows [][]string
	for i, l := range r.Labels {
		rows = append(rows, []string{l, seconds(r.Times[i], false),
			fmt.Sprintf("%d", r.ShuffleBytes[i]), fmt.Sprintf("%d", r.Pairs[i])})
	}
	return "Carry-complete-records alternative (§2.2), DBLP x10, 10 nodes\n" + table(header, rows)
}

// ---- §6 (in text): threshold sweep ----------------------------------------

// ThresholdSweepResult reproduces the in-text claim that "higher
// similarity thresholds decreased the running time" (0.80 being the usual
// lower bound in the literature).
type ThresholdSweepResult struct {
	Thresholds []float64
	Times      []time.Duration
	Pairs      []int64
	Candidates []int64
}

// ThresholdSweep runs the full BTO-PK-BRJ self-join on DBLP×10 at
// 10 nodes for τ ∈ {0.5 … 0.9}.
func (s *Suite) ThresholdSweep() (*ThresholdSweepResult, error) {
	const factor, nodes = 10, 10
	res := &ThresholdSweepResult{}
	for i, tau := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		fs := dfs.New(dfs.Options{BlockSize: s.w.p.BlockSize, Nodes: nodes})
		if err := mapreduce.WriteTextFile(fs, "dblp", datagen.Lines(s.w.dblpTimes(factor))); err != nil {
			return nil, err
		}
		cfg := s.w.baseCfg(fs, nodes)
		cfg.Threshold = tau
		cfg.Kernel = core.PK
		cfg.Work = fmt.Sprintf("tau-%d", i)
		r, err := core.SelfJoin(cfg, "dblp")
		if err != nil {
			return nil, err
		}
		t := simulate(spec(nodes), r.AllJobs())
		var cand int64
		for _, m := range r.AllJobs() {
			cand += m.Counters["stage2.candidates"]
		}
		res.Thresholds = append(res.Thresholds, tau)
		res.Times = append(res.Times, t)
		res.Pairs = append(res.Pairs, r.Pairs)
		res.Candidates = append(res.Candidates, cand)
	}
	return res, nil
}

// Render prints the sweep.
func (r *ThresholdSweepResult) Render() string {
	header := []string{"tau", "total(s)", "candidates", "pairs"}
	var rows [][]string
	for i, tau := range r.Thresholds {
		rows = append(rows, []string{fmt.Sprintf("%.2f", tau), seconds(r.Times[i], false),
			fmt.Sprintf("%d", r.Candidates[i]), fmt.Sprintf("%d", r.Pairs[i])})
	}
	return "Threshold sweep (§6 in text), BTO-PK-BRJ, DBLP x10, 10 nodes\n" + table(header, rows)
}
