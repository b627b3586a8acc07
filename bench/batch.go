package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"fuzzyjoin"
	"fuzzyjoin/internal/distrib"
)

const (
	// A run sets up at least minSetups times, and keeps going until
	// setupBudget of set-up time is spent or maxSetups is reached, so
	// setup_s is a median over many samples: one set-up is 10–130 ms and
	// varies by tens of percent from call to call.
	minSetups   = 9
	maxSetups   = 40
	setupBudget = 1500 * time.Millisecond
	// minTimedJoins is the fewest timed joins (or serve rounds) a run
	// reports a median over, however short -seconds is.
	minTimedJoins = 5
	// dfsNodes is the virtual DFS cluster size every workload writes to.
	dfsNodes = 4
)

// joiner holds one set-up workload: its input in a DFS and, for
// dist_self, a running worker fleet.
type joiner struct {
	fs   *fuzzyjoin.FS
	sess *distrib.Session
	cfg  fuzzyjoin.Config
	spec fuzzyjoin.JoinSpec
	runs int
	// startWall is how long the last distrib.Start took.
	startWall time.Duration
}

// setUp makes the program's own set-up calls: the input written into a
// fresh DFS and, when distributed, the worker fleet started. The spans
// are children of parent.
func setUp(w *workload, d *dataset, distributed bool, rec *recorder, parent int) (*joiner, error) {
	j := &joiner{fs: fuzzyjoin.NewFS(dfsNodes), cfg: w.cfg}
	j.cfg.FS = j.fs
	j.spec.Input = "r"
	var err error
	rec.timed(parent, "dfs.write", func(int) {
		if err = fuzzyjoin.WriteRecords(j.fs, "r", d.r); err == nil && d.s != nil {
			j.spec.InputS = "s"
			err = fuzzyjoin.WriteRecords(j.fs, "s", d.s)
		}
	})
	if err != nil || !distributed {
		return j, err
	}
	return j, j.startWorkers(rec, parent)
}

// startWorkers forks the worker fleet and routes the joiner's tasks to it.
func (j *joiner) startWorkers(rec *recorder, parent int) error {
	var sess *distrib.Session
	var err error
	j.startWall = rec.timed(parent, "distrib.start", func(int) {
		sess, err = distrib.Start(distrib.Options{Workers: clients(), Stderr: io.Discard})
	})
	if err != nil {
		return err
	}
	j.sess = sess
	j.cfg.Runner = sess.Runner
	// One dispatch in flight per worker process.
	j.cfg.Parallelism = clients()
	return nil
}

// stopWorkers kills and reaps the fleet, if any, and returns the joiner
// to in-process execution.
func (j *joiner) stopWorkers() {
	if j.sess != nil {
		j.sess.Close()
		j.sess = nil
	}
	j.cfg.Runner, j.cfg.Parallelism = nil, 0
}

// nextSpec returns the join spec for the next run, on a fresh Work prefix.
func (j *joiner) nextSpec() fuzzyjoin.JoinSpec {
	j.runs++
	spec := j.spec
	spec.Config = j.cfg
	spec.Config.Work = fmt.Sprintf("work%d", j.runs)
	return spec
}

// join runs one end-to-end join through the public entry point, from the
// input already in the DFS to the parsed output pairs, and removes the
// join's intermediate files afterwards (outside the timed interval).
func (j *joiner) join(spec fuzzyjoin.JoinSpec) ([]fuzzyjoin.JoinedPair, *fuzzyjoin.Result, time.Duration, error) {
	defer j.fs.RemovePrefix(spec.Config.Work)
	start := time.Now()
	res, err := fuzzyjoin.Join(context.Background(), spec)
	if err != nil {
		return nil, nil, 0, err
	}
	pairs, err := fuzzyjoin.ReadJoinedPairs(j.fs, res.Output)
	return pairs, res, time.Since(start), err
}

// runBatch is the untraced end-to-end run of a batch or distributed
// workload: set up several times, one warm-up join, then timed joins for
// the given duration, every output checked against the reference.
func runBatch(w *workload, d *dataset, o options, c *checker) (metrics, error) {
	var j *joiner
	var setups []float64
	for spent := time.Duration(0); len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups); {
		if j != nil {
			j.stopWorkers()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if j, err = setUp(w, d, w.mode == distMode, nil, -1); err != nil {
			return nil, err
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
	}
	defer j.stopWorkers()

	self := d.s == nil
	var digests []pairDigest
	var walls, allocs, kernels []float64
	var lastPairs []fuzzyjoin.JoinedPair
	measured := time.Duration(0)
	for i := -1; i < minTimedJoins || measured.Seconds() < o.seconds; i++ {
		runtime.GC()
		kernel := referenceKernel()
		before := totalAllocMB()
		pairs, _, wall, err := j.join(j.nextSpec())
		if err != nil {
			return nil, fmt.Errorf("join %d: %w", i, err)
		}
		alloc := totalAllocMB() - before
		digests = append(digests, digest(ridPairs(pairs), self))
		lastPairs = pairs
		if i < 0 {
			continue // warm-up: checked, not timed
		}
		measured += wall
		walls = append(walls, wall.Seconds())
		allocs = append(allocs, alloc)
		kernels = append(kernels, kernel.Seconds())
	}
	peak := peakRSSMB()

	k := rankDataset(d)
	ref, _ := referenceJoin(k, w.cfg)
	want := digest(ref, self)
	for i, got := range digests {
		c.op(got == want, "join %d: %d pairs (hash %x), reference has %d (hash %x)", i, got.count, got.hash, want.count, want.hash)
	}
	bruteForceCheck(c, k, w.cfg, ridPairs(lastPairs), o.seed)

	// Times are relative to the reference kernel (see hostspeed.go). On
	// batch workloads a run holds too few joins for any percentile above
	// the median, so tail_ms repeats wall_s in milliseconds.
	factor := hostFactor(kernels)
	m := metrics{}
	m.put("setup_s", median(setups)*factor, "s")
	m.put("wall_s", median(walls)*factor, "s")
	m.put("alloc_mb", median(allocs), "MB")
	m.put("peak_rss_mb", peak, "MB")
	m.put("tail_ms", median(walls)*factor*1000, "ms")
	fmt.Printf("# %d set-ups, raw median %.4f s; %d timed joins, raw wall each %.4f s, raw median %.4f s; %d pairs per join\n",
		len(setups), median(setups), len(walls), walls, median(walls), want.count)
	fmt.Printf("# reference kernel median %.4f s (nominal %.3f): host factor %.3f\n", median(kernels), nominalKernelSeconds, factor)
	return m, nil
}
