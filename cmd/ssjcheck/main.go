// Command ssjcheck is the conformance harness CLI: it generates a
// seeded randomized workload, sweeps every pipeline variant in the
// configuration matrix (stage combos × join kind × routing × block
// processing × execution mode) against an exact record-level oracle,
// and checks the metamorphic invariant suite. Any divergence is
// reported with a minimized reproducer — the exact ssjcheck command
// line that re-creates it.
//
// Usage:
//
//	ssjcheck [-seed S] [-records N] [-vocab V] [-tau T]
//	         [-skew Z] [-neardup R] [-title-min N] [-title-max N] [-overlap F]
//	         [-join self,rs] [-combo LIST] [-routing LIST] [-blocks LIST] [-exec LIST]
//	         [-workers N] [-chaos RATE] [-chaos-seed S]
//	         [-sweep] [-invariants] [-serve] [-minimize] [-v]
//
// The matrix filters take comma-separated allowlists (empty = all):
// combos like "BTO-PK-BRJ,OPTO-FVT-OPRJ" (kernels BK, PK, FVT),
// routings "individual,grouped", blocks "none,map,reduce,lenroute"
// (the §5 strategies: block processing or length routing), execs
// "plain,faults,parallel,dist".
//
// "dist" cells dispatch task attempts to -workers forked worker
// processes over RPC; -chaos additionally SIGKILLs workers mid-task on
// a seeded deterministic schedule, and the sweep still requires every
// cell to match the oracle exactly.
//
// Exit status is 0 when every variant matches the oracle and every
// invariant holds, 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"fuzzyjoin/internal/conformance"
	"fuzzyjoin/internal/distrib"
)

func main() {
	distrib.MaybeWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ssjcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 1, "workload generation seed")
		nrec     = fs.Int("records", 0, "corpus size per relation (default 40)")
		vocab    = fs.Int("vocab", 0, "token dictionary size (default 512)")
		tau      = fs.Float64("tau", 0, "similarity threshold (default 0.8)")
		skew     = fs.Float64("skew", 0, "Zipf token-frequency exponent (default 1.3)")
		neardup  = fs.Float64("neardup", 0, "near-duplicate fraction (default 0.2; negative disables)")
		titleMin = fs.Int("title-min", 0, "minimum title length in words (default 6)")
		titleMax = fs.Int("title-max", 0, "maximum title length in words (default 12)")
		overlap  = fs.Float64("overlap", 0, "fraction of S derived from R in R-S workloads (default 0.5)")

		joins    = fs.String("join", "", "join kinds to sweep: self,rs (empty = both)")
		combos   = fs.String("combo", "", "stage combos to sweep, e.g. BTO-PK-BRJ (empty = all twelve)")
		routings = fs.String("routing", "", "token routings to sweep: individual,grouped (empty = both)")
		blocks   = fs.String("blocks", "", "§5 strategies to sweep: none,map,reduce,lenroute (empty = all)")
		execs    = fs.String("exec", "", "execution modes to sweep: plain,faults,parallel,dist (empty = all)")

		workers   = fs.Int("workers", 0, "worker processes to fork for dist cells (0 = skip dist cells unless -exec selects them, then 2)")
		chaos     = fs.Float64("chaos", 0, "SIGKILL workers mid-task for this fraction of dist dispatches (seeded, deterministic)")
		chaosSeed = fs.Int64("chaos-seed", 1, "seed selecting which dist dispatches the chaos kills hit")

		sweep      = fs.Bool("sweep", true, "run the matrix sweep against the oracle")
		invariants = fs.Bool("invariants", true, "run the metamorphic invariant suite")
		serve      = fs.Bool("serve", false, "differentially verify the online service (ssjserve): every Match answer must equal the oracle, including after incremental ingestion")
		minimize   = fs.Bool("minimize", true, "shrink failing workloads before reporting")
		verbose    = fs.Bool("v", false, "log every variant and invariant as it runs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ssjcheck: unexpected arguments %q\n", fs.Args())
		return 2
	}

	w := conformance.Workload{
		Records:     *nrec,
		Seed:        *seed,
		Vocab:       *vocab,
		Skew:        *skew,
		TitleMin:    *titleMin,
		TitleMax:    *titleMax,
		NearDupRate: *neardup,
		Overlap:     *overlap,
	}
	p := conformance.Params{Threshold: *tau}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(stdout, format+"\n", args...)
		}
	}

	failures := 0
	if *sweep {
		filter := conformance.Filter{
			Joins:    *joins,
			Combos:   *combos,
			Routings: *routings,
			Blocks:   *blocks,
			Execs:    *execs,
		}
		// Without an explicit -exec or -workers, sweep the in-process
		// modes only: dist cells need a worker fleet.
		if *execs == "" && *workers == 0 {
			filter.Execs = "plain,faults,parallel"
		}
		variants, err := conformance.Matrix(filter)
		if err != nil {
			fmt.Fprintln(stderr, "ssjcheck:", err)
			return 2
		}
		if len(variants) == 0 {
			fmt.Fprintln(stderr, "ssjcheck: matrix filter selected no variants")
			return 2
		}
		needDist := false
		for _, v := range variants {
			if v.Exec == conformance.ExecDist {
				needDist = true
				break
			}
		}
		var sess *distrib.Session
		if needDist {
			n := *workers
			if n <= 0 {
				n = 2
			}
			opts := distrib.Options{Workers: n, Stderr: stderr}
			if *chaos > 0 {
				opts.Kill = &distrib.KillSpec{Rate: *chaos, Seed: *chaosSeed, MaxKills: n - 1}
			}
			sess, err = distrib.Start(opts)
			if err != nil {
				fmt.Fprintln(stderr, "ssjcheck:", err)
				return 2
			}
			defer sess.Close()
			p.Runner = sess.Runner
			fmt.Fprintf(stdout, "dist: %d worker processes forked (chaos rate %g)\n", n, *chaos)
		}
		start := time.Now()
		rep := conformance.Sweep(w, p, variants, conformance.SweepOptions{
			Logf:       logf,
			NoMinimize: !*minimize,
		})
		oracle := ""
		if rep.OraclePairsSelf >= 0 {
			oracle += fmt.Sprintf(" self=%d", rep.OraclePairsSelf)
		}
		if rep.OraclePairsRS >= 0 {
			oracle += fmt.Sprintf(" rs=%d", rep.OraclePairsRS)
		}
		fmt.Fprintf(stdout, "sweep: %d variants, seed %d, %d records, oracle pairs%s (%v)\n",
			rep.Variants, rep.Workload.Seed, rep.Workload.Records, oracle,
			time.Since(start).Round(time.Millisecond))
		for _, d := range rep.Divergences {
			fmt.Fprintf(stdout, "DIVERGENCE %s\n", d)
		}
		failures += len(rep.Divergences)
		if sess != nil && *chaos > 0 {
			fmt.Fprintf(stdout, "chaos: %d worker kill(s) fired, %d worker(s) still live, %d map output(s) recomputed\n",
				sess.Runner.Kills(), sess.Coord.LiveWorkers(), sess.Stats().Recomputed)
		}
	}
	if *invariants {
		start := time.Now()
		fails := conformance.CheckInvariants(w, p, logf)
		fmt.Fprintf(stdout, "invariants: 4 checked, %d failed (%v)\n",
			len(fails), time.Since(start).Round(time.Millisecond))
		for _, f := range fails {
			fmt.Fprintf(stdout, "INVARIANT %s\n", f)
		}
		failures += len(fails)
	}
	if *serve {
		start := time.Now()
		serveShards := []int{1, 8}
		serveFails := 0
		for _, shards := range serveShards {
			logf("serve: shards=%d", shards)
			if err := conformance.ServeCheck(w, p, shards); err != nil {
				fmt.Fprintf(stdout, "SERVE %v\n", err)
				serveFails++
			}
		}
		fmt.Fprintf(stdout, "serve: %d shard counts checked, %d failed (%v)\n",
			len(serveShards), serveFails, time.Since(start).Round(time.Millisecond))
		failures += serveFails
	}
	if !*sweep && !*invariants && !*serve {
		fmt.Fprintln(stderr, "ssjcheck: nothing to do (-sweep=false -invariants=false)")
		return 2
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "FAIL: %d divergence(s)\n", failures)
		return 1
	}
	fmt.Fprintln(stdout, "PASS: all variants conform")
	return 0
}
