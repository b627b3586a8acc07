package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"fuzzyjoin"
	"fuzzyjoin/internal/cluster"
	"fuzzyjoin/internal/core"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/tokenize"
	"fuzzyjoin/internal/trace"
)

// baselineJoins is how many untraced joins, and as many staged joins, the
// traced pass runs: the untraced median is the denominator of every
// "over untraced" ratio.
const baselineJoins = 3

// stagedJoin is one join run stage by stage through core's exported
// stage functions, with a span around each: the traced counterpart of
// joiner.join.
type stagedJoin struct {
	pairs      []fuzzyjoin.JoinedPair
	stages     [3][]*mapreduce.Metrics
	stageWall  [3]time.Duration
	readOutput time.Duration
	wall       time.Duration // the whole join span
	tokenOrder []byte        // Stage 1's output file
	dfsBytes   int64         // DFS size once the join has finished
}

func (sj *stagedJoin) jobs() []*mapreduce.Metrics {
	var all []*mapreduce.Metrics
	for _, s := range sj.stages {
		all = append(all, s...)
	}
	return all
}

// staged runs the join of spec as spans under parent.
func (j *joiner) staged(spec fuzzyjoin.JoinSpec, rec *recorder, parent int) (*stagedJoin, error) {
	defer j.fs.RemovePrefix(spec.Config.Work)
	cfg, r, s := spec.Config, spec.Input, spec.InputS
	sj := &stagedJoin{}
	var err error
	sj.wall = rec.timed(parent, "join", func(id int) {
		var tokenFile, ridPairs, output string
		sj.stageWall[0] = rec.timed(id, "core.stage1", func(int) {
			tokenFile, sj.stages[0], err = core.Stage1(cfg, r)
		})
		if err != nil {
			return
		}
		sj.stageWall[1] = rec.timed(id, "core.stage2", func(int) {
			if s != "" {
				ridPairs, sj.stages[1], err = core.Stage2RS(cfg, r, s, tokenFile)
			} else {
				ridPairs, sj.stages[1], err = core.Stage2Self(cfg, r, tokenFile)
			}
		})
		if err != nil {
			return
		}
		sj.stageWall[2] = rec.timed(id, "core.stage3", func(int) {
			if s != "" {
				output, sj.stages[2], err = core.Stage3RS(cfg, r, s, ridPairs)
			} else {
				output, sj.stages[2], err = core.Stage3Self(cfg, r, ridPairs)
			}
		})
		if err != nil {
			return
		}
		sj.readOutput = rec.timed(id, "mapreduce.read_output", func(int) {
			sj.pairs, err = fuzzyjoin.ReadJoinedPairs(j.fs, output)
		})
		if err == nil {
			sj.tokenOrder, err = j.fs.ReadAll(tokenFile)
		}
	})
	sj.dfsBytes = j.fs.TotalBytes()
	return sj, err
}

// runTraced is the traced pass: the workload set up and joined once with
// a span around every call into a module, then each module exercised
// alone on the workload's own data. Every workload runs every layer, so
// the per-layer metrics form a full layer × workload table.
func runTraced(w *workload, o options, c *checker) (metrics, error) {
	rec := newRecorder(w.name)
	m := metrics{}
	root := rec.begin(-1, "workload")

	setup := rec.begin(root, "setup")
	d := w.generate(o.seed, o.scale, rec, setup)
	j, err := setUp(w, d, w.mode == distMode, rec, setup)
	rec.end(setup)
	if err != nil {
		return nil, err
	}
	defer j.stopWorkers()
	self := d.s == nil

	// Untraced joins through the public entry point, as runBatch times
	// them, alternating with staged joins under spans. One join alone
	// varies by several percent, so both sides of the traced-over-untraced
	// ratio are medians taken under the same heap conditions.
	var walls []float64
	var digests []pairDigest
	var staged []*stagedJoin
	for i := 0; i < baselineJoins; i++ {
		runtime.GC()
		var pairs []fuzzyjoin.JoinedPair
		var wall time.Duration
		rec.timed(root, "baseline", func(int) { pairs, _, wall, err = j.join(j.nextSpec()) })
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall.Seconds())
		digests = append(digests, digest(ridPairs(pairs), self))

		runtime.GC()
		sj, err := j.staged(j.nextSpec(), rec, root)
		if err != nil {
			return nil, err
		}
		staged = append(staged, sj)
		digests = append(digests, digest(ridPairs(sj.pairs), self))
	}
	untraced := median(walls)
	// The staged join of median wall stands for all three in the
	// per-layer metrics.
	sort.Slice(staged, func(a, b int) bool { return staged[a].wall < staged[b].wall })
	sj := staged[len(staged)/2]
	stagedMetrics(m, d, sj)
	m.put("trace.stage_sum_over_join", sj.wall.Seconds()/untraced, "ratio")

	// The comparison joins run next, before the replays fill the heap: a
	// larger live heap means fewer collections and a faster join, which
	// would bias every "over untraced" ratio. Their outputs are checked
	// once the reference exists.
	lay := &layers{w: w, d: d, o: o, c: c, rec: rec, m: m}
	if err := lay.replayPlanTrace(root, j, untraced); err != nil {
		return nil, err
	}
	if err := lay.replayDistrib(root, j, untraced); err != nil {
		return nil, err
	}

	// Each module alone, on this workload's data.
	order := tokenize.NewOrder(strings.Fields(string(sj.tokenOrder)))
	k, ref := lay.replayData(root, order)
	lay.replayKernelParts(root, k)
	lay.replayFVT(root, k)
	lay.replayDFS(root, sj.dfsBytes)
	if err := lay.replayMapReduce(root, k); err != nil {
		return nil, err
	}

	verify := rec.begin(root, "verify")
	want := digest(ref, self)
	for i, got := range digests {
		c.op(got == want, "join %d: %d pairs (hash %x), reference has %d (hash %x)", i, got.count, got.hash, want.count, want.hash)
	}
	for _, lj := range lay.joins {
		c.op(lj.got == want, "%s: %d pairs (hash %x), reference has %d (hash %x)", lj.label, lj.got.count, lj.got.hash, want.count, want.hash)
	}
	bruteForceCheck(c, k, w.cfg, ridPairs(sj.pairs), o.seed)
	rec.end(verify)

	serve := rec.begin(root, "serve")
	err = serveReplay(w, d, o, c, rec, serve, m)
	rec.end(serve)
	if err != nil {
		return nil, err
	}

	rec.end(root)
	m.put("datagen.generate_s", d.generate.Seconds(), "s")
	m.put("datagen.increase_s", d.increase.Seconds(), "s")
	m.put("datagen.records", float64(d.inputRecords()), "count")
	if err := writeSpans(o.outDir, w.name, rec.finish()); err != nil {
		return nil, err
	}
	return m, nil
}

// stagedMetrics derives the mapreduce.*, core.* and cluster.* metrics
// from the engine metrics the staged join's stage functions returned.
func stagedMetrics(m metrics, d *dataset, sj *stagedJoin) {
	var tasks, mapOut, spills, retried int
	var mapCost, reduceCost time.Duration
	var shuffle int64
	counters := map[string]int64{}
	jobs := sj.jobs()
	for _, job := range jobs {
		tasks += len(job.MapTasks) + len(job.ReduceTasks)
		shuffle += job.TotalShuffleBytes()
		for _, t := range job.MapTasks {
			mapCost += t.Cost
			mapOut += int(t.OutputRecords)
			spills += t.SpillCount
			retried += t.Attempts - 1
		}
		for _, t := range job.ReduceTasks {
			reduceCost += t.Cost
			retried += t.Attempts - 1
		}
		for name, v := range job.Counters {
			counters[name] += v
		}
	}
	stageSum := (sj.stageWall[0] + sj.stageWall[1] + sj.stageWall[2]).Seconds()
	procs := float64(runtime.GOMAXPROCS(0))

	m.put("mapreduce.jobs", float64(len(jobs)), "count")
	m.put("mapreduce.tasks", float64(tasks), "count")
	m.put("mapreduce.map_cost_s", mapCost.Seconds(), "s")
	m.put("mapreduce.reduce_cost_s", reduceCost.Seconds(), "s")
	m.put("mapreduce.shuffle_mb", float64(shuffle)/1e6, "MB")
	m.put("mapreduce.map_out_records", float64(mapOut), "count")
	m.put("mapreduce.spills", float64(spills), "count")
	m.put("mapreduce.attempts_retried", float64(retried), "count")
	m.put("mapreduce.busy_share", (mapCost+reduceCost).Seconds()/(procs*sj.wall.Seconds()), "ratio")
	m.put("mapreduce.read_output_s", sj.readOutput.Seconds(), "s")

	// The Stage-2 kernel runs in the reduce tasks of the stage's first job.
	kernel := sj.stages[1][0]
	var kernelCost, slowest time.Duration
	var stage2Out int64
	for _, t := range kernel.ReduceTasks {
		kernelCost += t.Cost
		slowest = max(slowest, t.Cost)
	}
	for _, t := range sj.stages[1][len(sj.stages[1])-1].ReduceTasks {
		stage2Out += t.OutputBytes
	}
	var stage3Shuffle int64
	for _, job := range sj.stages[2] {
		stage3Shuffle += job.TotalShuffleBytes()
	}
	m.put("mapreduce.reduce_skew", ratio(slowest.Seconds()*float64(len(kernel.ReduceTasks)), kernelCost.Seconds()), "ratio")
	m.put("core.stage1_s", sj.stageWall[0].Seconds(), "s")
	m.put("core.stage2_s", sj.stageWall[1].Seconds(), "s")
	m.put("core.stage3_s", sj.stageWall[2].Seconds(), "s")
	m.put("core.stage2_kernel_share", ratio(kernelCost.Seconds(), (mapCost+reduceCost).Seconds()), "ratio")
	m.put("core.stage2.replicas_per_record", float64(counters["stage2.replicas"])/float64(d.inputRecords()), "ratio")
	m.put("core.stage2.candidates", float64(counters["stage2.candidates"]), "count")
	m.put("core.stage2.verified", float64(counters["stage2.verified"]), "count")
	m.put("core.stage2.bitmap_rejected", float64(counters["stage2.bitmap_rejected"]), "count")
	m.put("core.stage2.rid_pairs", float64(counters["stage2.results"]), "count")
	m.put("core.stage2_out_mb", float64(stage2Out)/1e6, "MB")
	m.put("core.stage3.pairs", float64(counters["stage3.pairs"]), "count")
	m.put("core.stage3.duplicate_pairs", float64(counters["stage3.duplicate_pairs"]), "count")
	m.put("core.stage3_shuffle_mb", float64(stage3Shuffle)/1e6, "MB")

	// The simulator every paper figure rests on, given this host's real
	// slots and no network, against the clock.
	m.put("cluster.sim_over_real", hostSpec().FlowMakespan(jobCosts(jobs)).Seconds()/stageSum, "ratio")
}

// hostSpec is the cluster simulator configured as this host: one node,
// GOMAXPROCS slots, no network or start-up charges.
func hostSpec() cluster.Spec {
	p := runtime.GOMAXPROCS(0)
	return cluster.Spec{Nodes: 1, MapSlotsPerNode: p, ReduceSlotsPerNode: p}
}

func jobCosts(jobs []*mapreduce.Metrics) []cluster.JobCost {
	costs := make([]cluster.JobCost, len(jobs))
	for i, job := range jobs {
		costs[i] = cluster.FromMetrics(job)
	}
	return costs
}

// replayPlanTrace runs the two extra joins whose wall is read against
// the untraced median: one under the planner's choice, one with the
// program's own tracer on.
func (l *layers) replayPlanTrace(parent int, j *joiner, untraced float64) error {
	id := l.rec.begin(parent, "replay.plan")
	spec := j.nextSpec()
	var p *fuzzyjoin.JoinPlan
	var err error
	decide := l.rec.timed(id, "plan.decide", func(int) { p, err = fuzzyjoin.Plan(context.Background(), spec) })
	if err != nil {
		return err
	}
	spec.Config = p.Best.Apply(spec.Config)
	runtime.GC()
	pairs, res, wall, err := j.join(spec)
	l.rec.end(id)
	if err != nil {
		return fmt.Errorf("planned join (%s): %w", p.Best, err)
	}
	l.keep(fmt.Sprintf("planned join (%s)", p.Best), pairs)
	l.m.put("plan.decide_s", decide.Seconds(), "s")
	l.m.put("plan.auto_wall_over_fixed", wall.Seconds()/untraced, "ratio")
	l.m.put("plan.predicted_over_sim", ratio(p.Predicted.Seconds(), p.Spec.FlowMakespan(jobCosts(res.AllJobs())).Seconds()), "ratio")

	id = l.rec.begin(parent, "replay.trace")
	spec = j.nextSpec()
	spec.Config.Trace = trace.New()
	runtime.GC()
	pairs, res, wall, err = j.join(spec)
	l.rec.end(id)
	if err != nil {
		return fmt.Errorf("join with Config.Trace: %w", err)
	}
	l.keep("join with Config.Trace", pairs)
	l.m.put("trace.on_wall_over_off", wall.Seconds()/untraced, "ratio")
	l.m.put("trace.events", float64(len(res.Trace.Events)), "count")
	return nil
}

// replayDistrib runs the workload's join on the other backend: in this
// process for dist_self, on a freshly forked worker fleet for the rest.
func (l *layers) replayDistrib(parent int, j *joiner, untraced float64) error {
	id := l.rec.begin(parent, "replay.distrib")
	defer l.rec.end(id)
	distributed, inProcess := untraced, untraced
	other := &distributed
	if l.w.mode == distMode {
		j.stopWorkers()
		other = &inProcess
	} else if err := j.startWorkers(l.rec, id); err != nil {
		return err
	}
	runtime.GC()
	pairs, _, wall, err := j.join(j.nextSpec())
	j.stopWorkers() // reaps the workers, so their peak RSS is readable
	if err != nil {
		return err
	}
	*other = wall.Seconds()
	l.keep("join on the other backend", pairs)
	l.m.put("distrib.start_s", j.startWall.Seconds(), "s")
	l.m.put("distrib.wall_over_inproc", distributed/inProcess, "ratio")
	l.m.put("distrib.worker_peak_rss_mb", childrenPeakRSSMB(), "MB")
	return nil
}
