package experiments

import (
	"fmt"
	"math"
	"time"

	"fuzzyjoin/internal/core"
	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/filter"
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
	fs, tokenFile, err := s.w.btoTokens(factor, nodes)
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
	res := &SkewStatsResult{}
	freq := map[uint64]int{}
	if _, err := core.WalkRIDPairs(set.fs, set.pkPairs, func(p records.RIDPair) error {
		res.PairCount++
		freq[p.A]++
		freq[p.B]++
		return nil
	}); err != nil {
		return nil, err
	}
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
	fs, tokenFile, err := s.w.btoTokens(factor, nodes)
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
	seen := map[records.RIDPair]bool{}
	_, err := core.WalkRIDPairs(fs, prefix, func(p records.RIDPair) error {
		seen[p] = true
		return nil
	})
	return len(seen), err
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

// ---- filter ablation ------------------------------------------------------

// FilterAblationResult is what each kernel filter buys on top of the
// prefix filter: candidates, verifications and simulated Stage 2 time
// per filter stack.
type FilterAblationResult struct {
	Rows       []string
	Times      []time.Duration
	Candidates []int64
	// BitmapRejected is stage2.bitmap_rejected: the pairs that survived
	// the row's filter stack and the bitmap filter then kept from
	// verification.
	BitmapRejected []int64
	Verified       []int64
	Results        []int64
}

// Render prints the comparison.
func (r *FilterAblationResult) Render() string {
	header := []string{"variant", "stage2(s)", "candidates", "bitmap rej.", "verified", "results"}
	var rows [][]string
	for i, label := range r.Rows {
		rows = append(rows, []string{label, seconds(r.Times[i], false),
			fmt.Sprintf("%d", r.Candidates[i]), fmt.Sprintf("%d", r.BitmapRejected[i]),
			fmt.Sprintf("%d", r.Verified[i]), fmt.Sprintf("%d", r.Results[i])})
	}
	return "Filter ablation, PK kernel, DBLP x10, 10 nodes\n" + table(header, rows)
}

// FilterAblation measures the contribution of each kernel filter on top
// of the prefix filter (PK kernel, DBLP×10, 10 nodes).
func (s *Suite) FilterAblation() (*FilterAblationResult, error) {
	const factor, nodes = 10, 10
	stacks := []struct {
		label string
		stack filter.Stack
	}{
		{"prefix only", filter.Stack{}},
		{"+length", filter.Stack{Length: true}},
		{"+positional", filter.Stack{Length: true, Positional: true}},
		{"+suffix (full)", filter.AllFilters},
	}
	fs, tokenFile, err := s.w.btoTokens(factor, nodes)
	if err != nil {
		return nil, err
	}
	res := &FilterAblationResult{}
	for i, st := range stacks {
		cfg := s.w.baseCfg(fs, nodes)
		cfg.Kernel, cfg.Filters = core.PK, &stacks[i].stack
		cfg.Work = fmt.Sprintf("kv-%d", i)
		_, ms, err := core.Stage2Self(cfg, "dblp", tokenFile)
		if err != nil {
			return nil, err
		}
		var cand, rej, ver, results int64
		for _, m := range ms {
			cand += m.Counters["stage2.candidates"]
			rej += m.Counters["stage2.bitmap_rejected"]
			ver += m.Counters["stage2.verified"]
			results += m.Counters["stage2.results"]
		}
		res.Rows = append(res.Rows, st.label)
		res.Times = append(res.Times, simulate(spec(nodes), ms))
		res.Candidates = append(res.Candidates, cand)
		res.BitmapRejected = append(res.BitmapRejected, rej)
		res.Verified = append(res.Verified, ver)
		res.Results = append(res.Results, results)
	}
	return res, nil
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
	fs, err := s.w.dblpFS(factor, nodes)
	if err != nil {
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
		fs, err := s.w.dblpFS(factor, nodes)
		if err != nil {
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
