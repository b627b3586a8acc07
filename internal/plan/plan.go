package plan

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"fuzzyjoin/internal/cluster"
	"fuzzyjoin/internal/core"
)

// Choice is one complete knob vector the planner can select. Every
// field is admissible: applying any Choice changes cost, never the join
// result.
type Choice struct {
	TokenOrder core.TokenOrderAlg
	Kernel     core.KernelAlg
	RecordJoin core.RecordJoinAlg
	Routing    core.Routing
	// NumGroups is set (2 × NumReducers) when Routing is grouped.
	NumGroups   int
	NumReducers int
}

// Apply copies the planned knobs onto a Config, leaving everything else
// (FS, Work, threshold, fault tolerance, ...) untouched.
func (c Choice) Apply(cfg core.Config) core.Config {
	cfg.TokenOrder = c.TokenOrder
	cfg.Kernel = c.Kernel
	cfg.RecordJoin = c.RecordJoin
	cfg.Routing = c.Routing
	cfg.NumGroups = c.NumGroups
	cfg.NumReducers = c.NumReducers
	return cfg
}

// String renders the choice the way experiment tables label cells.
func (c Choice) String() string {
	return fmt.Sprintf("%s-%s-%s routing=%s reducers=%d",
		c.TokenOrder, c.Kernel, c.RecordJoin, c.Routing, c.NumReducers)
}

// Candidate is one evaluated knob vector with its predicted makespan.
type Candidate struct {
	Choice
	Predicted time.Duration
}

// Plan is the planner's decision: the chosen knob vector, every
// candidate ranked by predicted makespan, and the sample it was decided
// from.
type Plan struct {
	Best      Choice
	Predicted time.Duration
	// Candidates is every evaluated knob vector, ascending by predicted
	// makespan (ties keep enumeration order, so ranking is
	// deterministic).
	Candidates []Candidate
	Sample     *Sample
	Nodes      int
	Spec       cluster.Spec
}

// The analytic cost model: fixed per-unit work weights (nanoseconds) and
// scaling exponents. Absolute fidelity is not the goal — the planner
// only needs the model to rank configurations the way the measured
// cluster simulation does. The shapes encode what the paper's
// evaluation establishes:
//
//   - BK buffers a whole reduce group and verifies O(n²) candidate
//     pairs, so its group cost grows quadratically in the group load;
//   - PK prunes with the positional/length filter stack, sub-quadratic
//     in practice (modeled n^1.5). Its weight follows PK's measured
//     Stage 2 reduce cost on the planner ablation's three workloads,
//     with the walk's pruning and the bitmap test ahead of the suffix
//     filter;
//   - FVT is candidate-free with shared-prefix traversal, the flattest
//     growth (modeled n^1.3) but the largest per-item constant;
//   - BTO pays a second job overhead, OPTO a single unparallelizable
//     sort reducer;
//   - OPRJ saves a whole job but broadcasts the RID-pair index to every
//     node (SideBytes), BRJ pays the extra job instead.
const (
	wTokenize       = 700.0 // ns per token through a tokenizing mapper
	wReplica        = 900.0 // ns per Stage 2 projection emitted+shuffled
	wCount          = 220.0 // ns per token through Stage 1 counting
	wSort           = 150.0 // ns per token·log2(vocab) in the total-order sort
	wPair           = 400.0 // ns per RID pair through record-join plumbing
	bytesPerReplica = 48.0  // shuffle bytes per Stage 2 projection
	bytesPerPair    = 40.0  // bytes per RID pair (shuffle and broadcast)
	pairSurvival    = 0.002 // verified fraction of generated candidate pairs
	vocabExp        = 0.6   // Heap's-law exponent: vocab_full = vocab_sample · scale^0.6
)

// kernelShape maps each Stage 2 kernel to its (weight ns, exponent)
// group-cost model: cost(group of n) = w · n^exp.
func kernelShape(k core.KernelAlg) (w, exp float64) {
	switch k {
	case core.BK:
		return 31, 2.0
	case core.PK:
		return 190, 1.5
	default: // FVT
		return 800, 1.3
	}
}

// spread divides total nanoseconds of work evenly over n tasks.
func spread(totalNS float64, n int) []time.Duration {
	if n < 1 {
		n = 1
	}
	per := time.Duration(totalNS / float64(n))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = per
	}
	return out
}

// evenShuffle divides total shuffle bytes evenly over n reduce tasks.
func evenShuffle(totalBytes float64, n int) []int64 {
	if n < 1 {
		n = 1
	}
	per := int64(totalBytes / float64(n))
	out := make([]int64, n)
	for i := range out {
		out[i] = per
	}
	return out
}

// model synthesizes the pipeline's job costs for one candidate and
// returns the predicted flow makespan on spec.
func model(s *Sample, c Choice, spec cluster.Spec) time.Duration {
	scale := s.Scale()
	recs := float64(s.TotalR + s.TotalS)
	totalTokens := recs * s.AvgTokens
	vocabFull := float64(s.Vocab) * math.Pow(scale, vocabExp)
	if vocabFull < 2 {
		vocabFull = 2
	}
	logV := math.Log2(vocabFull)
	mapTasks := int(recs / 256)
	if mapTasks < 1 {
		mapTasks = 1
	}
	if cap := spec.Nodes * spec.MapSlotsPerNode * 2; mapTasks > cap {
		mapTasks = cap
	}

	var jobs []cluster.JobCost

	// Stage 1: token ordering.
	switch c.TokenOrder {
	case core.OPTO:
		jobs = append(jobs, cluster.JobCost{
			Name:     "s1-opto",
			MapCosts: spread(totalTokens*wTokenize, mapTasks),
			// One reducer totally sorts the dictionary in memory: the
			// stage cannot speed up with the cluster.
			ReduceCosts:      spread(vocabFull*logV*wSort*1.15, 1),
			ShufflePerReduce: evenShuffle(vocabFull*12, 1),
		})
	default: // BTO: count job + sort job.
		jobs = append(jobs,
			cluster.JobCost{
				Name:             "s1-count",
				MapCosts:         spread(totalTokens*wTokenize, mapTasks),
				ReduceCosts:      spread(vocabFull*wCount, c.NumReducers),
				ShufflePerReduce: evenShuffle(vocabFull*12, c.NumReducers),
			},
			cluster.JobCost{
				Name:             "s1-sort",
				MapCosts:         spread(vocabFull*wCount, 1),
				ReduceCosts:      spread(vocabFull*logV*wSort, 1),
				ShufflePerReduce: evenShuffle(vocabFull*12, 1),
			})
	}

	// Stage 2: build the per-reduce-group loads from the sampled
	// per-rank prefix loads, then price each group under the kernel's
	// cost shape and pack groups onto reducers.
	kw, kexp := kernelShape(c.Kernel)
	// groupLoads[g] accumulates the sampled load of routing group g.
	groupLoads := map[int]float64{}
	replicas := 0.0
	group := func(rank int) int {
		if c.Routing == core.GroupedTokens && c.NumGroups > 0 {
			return rank % c.NumGroups
		}
		return rank
	}
	for rank, load := range s.RankLoads {
		if load == 0 {
			continue
		}
		groupLoads[group(rank)] += float64(load)
		replicas += float64(load)
	}
	// Price groups at full scale and pack them LPT-style onto the
	// reducers (deterministic: cost descending, group id ascending).
	type gcost struct {
		id   int
		cost float64
		load float64
	}
	groups := make([]gcost, 0, len(groupLoads))
	for id, load := range groupLoads {
		full := load * scale
		groups = append(groups, gcost{id: id, cost: kw * math.Pow(full, kexp), load: full})
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].cost != groups[j].cost {
			return groups[i].cost > groups[j].cost
		}
		return groups[i].id < groups[j].id
	})
	reduceNS := make([]float64, c.NumReducers)
	reduceReplicas := make([]float64, c.NumReducers)
	for _, g := range groups {
		min := 0
		for i := 1; i < len(reduceNS); i++ {
			if reduceNS[i] < reduceNS[min] {
				min = i
			}
		}
		reduceNS[min] += g.cost
		reduceReplicas[min] += g.load
	}
	fullReplicas := replicas * scale
	s2 := cluster.JobCost{
		Name:             "s2-kernel",
		MapCosts:         spread(totalTokens*wTokenize+fullReplicas*wReplica, mapTasks),
		ReduceCosts:      make([]time.Duration, c.NumReducers),
		ShufflePerReduce: make([]int64, c.NumReducers),
		// Stage 2 broadcasts the token order to every mapper.
		SideBytes: int64(vocabFull * 10),
	}
	for i := range reduceNS {
		s2.ReduceCosts[i] = time.Duration(reduceNS[i])
		s2.ShufflePerReduce[i] = int64(reduceReplicas[i] * bytesPerReplica)
	}
	jobs = append(jobs, s2)

	// Candidate and output pair estimates drive the Stage 3 costs.
	// Candidates are per-group n·(n-1)/2; a fixed survival fraction stands
	// in for filter effectiveness (its absolute value cancels out of the
	// candidate ranking).
	candidates := 0.0
	for _, g := range groups {
		candidates += g.load * (g.load - 1) / 2
	}
	pairsOut := candidates * pairSurvival
	if pairsOut < 1 {
		pairsOut = 1
	}

	// Stage 3: record join.
	switch c.RecordJoin {
	case core.OPRJ:
		jobs = append(jobs, cluster.JobCost{
			Name:     "s3-oprj",
			MapCosts: spread(recs*wTokenize+pairsOut*2*wPair, mapTasks),
			// The RID-pair index is broadcast to every node: the cost
			// that grows with the result and does not parallelize.
			SideBytes:        int64(pairsOut * bytesPerPair),
			ReduceCosts:      spread(pairsOut*wPair, c.NumReducers),
			ShufflePerReduce: evenShuffle(pairsOut*bytesPerPair, c.NumReducers),
		})
	default: // BRJ: route records to pairs, then join the halves.
		jobs = append(jobs,
			cluster.JobCost{
				Name:             "s3-brj-route",
				MapCosts:         spread(recs*wTokenize+pairsOut*wPair, mapTasks),
				ReduceCosts:      spread(pairsOut*2*wPair, c.NumReducers),
				ShufflePerReduce: evenShuffle(pairsOut*2*bytesPerPair, c.NumReducers),
			},
			cluster.JobCost{
				Name:             "s3-brj-join",
				MapCosts:         spread(pairsOut*wPair, mapTasks),
				ReduceCosts:      spread(pairsOut*wPair, c.NumReducers),
				ShufflePerReduce: evenShuffle(pairsOut*bytesPerPair, c.NumReducers),
			})
	}

	return spec.FlowMakespan(jobs)
}

// Decide evaluates every candidate knob vector against the sample's
// cost model on a cluster of the given size and returns the ranked
// plan. It is a pure function: same sample and nodes, same plan.
func Decide(s *Sample, nodes int) *Plan {
	if nodes < 1 {
		nodes = 1
	}
	spec := cluster.Default(nodes)
	var cands []Candidate
	for _, to := range []core.TokenOrderAlg{core.BTO, core.OPTO} {
		for _, k := range []core.KernelAlg{core.BK, core.PK, core.FVT} {
			for _, rj := range []core.RecordJoinAlg{core.BRJ, core.OPRJ} {
				for _, routing := range []core.Routing{core.IndividualTokens, core.GroupedTokens} {
					for _, nr := range []int{2 * nodes, 4 * nodes} {
						c := Choice{TokenOrder: to, Kernel: k, RecordJoin: rj, Routing: routing, NumReducers: nr}
						if routing == core.GroupedTokens {
							c.NumGroups = 2 * nr
						}
						cands = append(cands, Candidate{Choice: c, Predicted: model(s, c, spec)})
					}
				}
			}
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Predicted < cands[j].Predicted })
	return &Plan{
		Best:       cands[0].Choice,
		Predicted:  cands[0].Predicted,
		Candidates: cands,
		Sample:     s,
		Nodes:      nodes,
		Spec:       spec,
	}
}

// Render prints the decision: the sample summary, the pick, and the
// top of the ranking with the predicted spread.
func (p *Plan) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "planner: %s\n", p.Sample.Summary())
	fmt.Fprintf(&b, "planner: cluster %s, %d candidates evaluated\n", p.Spec, len(p.Candidates))
	fmt.Fprintf(&b, "planner: chose %s (predicted %v)\n", p.Best, p.Predicted.Round(time.Microsecond))
	top := p.Candidates
	if len(top) > 5 {
		top = top[:5]
	}
	for i, c := range top {
		fmt.Fprintf(&b, "  #%d %v  %s\n", i+1, c.Predicted.Round(time.Microsecond), c.Choice)
	}
	if n := len(p.Candidates); n > 1 {
		worst := p.Candidates[n-1]
		fmt.Fprintf(&b, "  worst %v  %s\n", worst.Predicted.Round(time.Microsecond), worst.Choice)
	}
	return b.String()
}
