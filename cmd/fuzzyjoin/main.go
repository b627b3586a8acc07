// Command fuzzyjoin runs an end-to-end set-similarity join over record
// files on the local file system (tab-separated lines: RID, title,
// authors, rest — see internal/records).
//
// Self-join:
//
//	fuzzyjoin -in pubs.tsv -out pairs.txt
//
// R-S join (R should be the smaller relation):
//
//	fuzzyjoin -in dblp.tsv -in2 citeseer.tsv -out pairs.txt
//
// Flags select the per-stage algorithms the paper studies; the default
// BTO-PK-BRJ is the combination the paper recommends as robust and
// scalable. Or let the cost planner choose: -plan auto samples the
// input, predicts every configuration's makespan on the virtual
// cluster, prints the ranking to stderr, and runs the cheapest:
//
//	fuzzyjoin -in pubs.tsv -plan auto -out pairs.txt
//
// Distributed mode (-workers n) forks n worker processes and dispatches
// every task attempt to them over RPC; output is byte-identical to the
// in-process run, including when workers are killed mid-task:
//
//	fuzzyjoin -in pubs.tsv -workers 2 -out pairs.txt
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"fuzzyjoin"
	"fuzzyjoin/internal/core"
	"fuzzyjoin/internal/distrib"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
)

func main() {
	// When forked by a -workers parent, this process is a worker:
	// MaybeWorker serves tasks until the coordinator goes away and never
	// returns.
	distrib.MaybeWorker()
	var (
		in     = flag.String("in", "", "input record file (required)")
		in2    = flag.String("in2", "", "second input for an R-S join (optional)")
		out    = flag.String("out", "", "output file; defaults to stdout")
		tau    = flag.Float64("tau", 0.8, "similarity threshold")
		fnName = flag.String("fn", "jaccard", "similarity function: jaccard, cosine, dice")
		s1     = flag.String("stage1", "BTO", "token ordering: BTO or OPTO")
		s2     = flag.String("stage2", "PK", "kernel: BK, PK, or FVT (case-insensitive)")
		s3     = flag.String("stage3", "BRJ", "record join: BRJ or OPRJ")
		red    = flag.Int("reducers", 8, "reduce tasks per job")
		planIs = flag.String("plan", "", "auto = sample the input, predict every configuration's makespan, and run the cheapest (overrides -stage* and -reducers)")
		par    = flag.Int("par", 0, "host parallelism (0 = all CPUs; wall-clock only, never affects output)")
		stats  = flag.Bool("stats", false, "print per-stage statistics to stderr")

		maxAttempts = flag.Int("max-attempts", 1, "attempts per task before the job fails (1 = no retries)")
		backoff     = flag.Duration("retry-backoff", 0, "base delay before a task retry (exponential, jittered)")
		taskTimeout = flag.Duration("task-timeout", 0, "per-attempt wall-clock limit (0 = none)")
		faultRate   = flag.Float64("fault-rate", 0, "inject deterministic failures into this fraction of task attempts (needs -max-attempts > 1)")
		faultSeed   = flag.Int64("fault-seed", 1, "seed selecting which tasks the injected failures hit")

		nodes       = flag.Int("nodes", 1, "virtual DFS nodes the input blocks spread over")
		replication = flag.Int("replication", 1, "distinct nodes each block is placed on (a map task runs data-local on any of them in the simulated timeline)")

		traceOn  = flag.Bool("trace", false, "collect a structured trace of the run and write trace.jsonl, timeline.svg, and metrics.json")
		traceOut = flag.String("trace-out", "", "directory for the trace artifacts (implies -trace; default \"trace\" when -trace is set)")

		workers = flag.Int("workers", 0, "worker processes to fork and dispatch every task to over RPC (0 = run tasks in process)")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *traceOut != "" {
		*traceOn = true
	} else if *traceOn {
		*traceOut = "trace"
	}

	cfg, err := buildConfig(*tau, *fnName, *s1, *s2, *s3, *red, *par)
	if err != nil {
		fatal(err)
	}
	cfg.Retry = fuzzyjoin.RetryPolicy{
		MaxAttempts:    *maxAttempts,
		Backoff:        *backoff,
		AttemptTimeout: *taskTimeout,
	}
	if *faultRate > 0 {
		if *maxAttempts <= 1 {
			fatal(fmt.Errorf("-fault-rate %v needs -max-attempts > 1 for the job to survive the injected failures", *faultRate))
		}
		cfg.FaultInjector = fuzzyjoin.RateInjector{Rate: *faultRate, Seed: *faultSeed}
	}

	if *nodes < 1 {
		fatal(fmt.Errorf("-nodes %d: need at least one node", *nodes))
	}
	fs := fuzzyjoin.NewFS(*nodes, fuzzyjoin.Replication(*replication))
	if *traceOn {
		cfg.Trace = fuzzyjoin.NewTracer()
	}
	if *workers > 0 {
		sess, err := distrib.Start(distrib.Options{Workers: *workers})
		if err != nil {
			fatal(err)
		}
		defer sess.Close()
		cfg.Runner = sess.Runner
		if *stats {
			fmt.Fprintf(os.Stderr, "fuzzyjoin: dispatching tasks to %d worker processes\n", *workers)
		}
	}
	cfg.FS, cfg.Work = fs, "job"
	if err := loadFile(fs, "R", *in); err != nil {
		fatal(err)
	}

	spec := fuzzyjoin.JoinSpec{Config: cfg, Input: "R"}
	if *in2 != "" {
		if err := loadFile(fs, "S", *in2); err != nil {
			fatal(err)
		}
		spec.InputS = "S"
	}
	switch *planIs {
	case "":
	case "auto":
		p, err := fuzzyjoin.Plan(context.Background(), spec)
		if err != nil {
			fatal(err)
		}
		fmt.Fprint(os.Stderr, p.Render())
		spec.Config = p.Best.Apply(spec.Config)
	default:
		fatal(fmt.Errorf("unknown -plan %q (only \"auto\")", *planIs))
	}
	res, err := fuzzyjoin.Join(context.Background(), spec)
	if err != nil {
		fatal(err)
	}

	dst := os.Stdout
	if *out != "" {
		if dst, err = os.Create(*out); err != nil {
			fatal(err)
		}
	}
	if err := printPairs(dst, fs, res.Output); err != nil {
		fatal(err)
	}
	if err := dst.Close(); err != nil {
		fatal(err)
	}

	if *stats {
		fmt.Fprintf(os.Stderr, "joined pairs: %d\n", res.Pairs)
		for _, st := range res.Stages {
			fmt.Fprintf(os.Stderr, "stage %d (%s): %d job(s), wall %v\n",
				st.Stage, st.Alg, len(st.Jobs), st.Wall.Round(1e6))
			for _, job := range st.Jobs {
				fmt.Fprint(os.Stderr, job.Report())
			}
		}
	}

	if *traceOn {
		if err := writeTraceArtifacts(*traceOut, res, cfg.Combo(), *nodes); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "fuzzyjoin: trace artifacts written to %s/\n", *traceOut)
	}
}

// joinAttr is the printed join attribute of a record: title and authors.
var joinAttr = []int{fuzzyjoin.FieldTitle, fuzzyjoin.FieldAuthors}

// printPairs writes a join's output to w a pair at a time, as the walk
// hands each one over: similarity, both RIDs and both join attributes,
// tab-separated, one pair a line. It prints from the line bytes and
// builds no Record, so it allocates nothing per pair, and writes in
// 64 KiB pieces. The similarity is printed as the line carries it: every
// writer of the output (records.AppendJoinedPair, JoinedPair.String)
// formats it as this output does, 'f' with six decimals, and
// SplitJoinedPair has checked that it parses.
func printPairs(w io.Writer, fs *fuzzyjoin.FS, output string) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	var attrs, line []byte
	if err := core.WalkJoinedLines(fs, output, func(pair []byte) error {
		_, left, right, err := records.SplitJoinedPair(pair)
		if err != nil {
			return err
		}
		lrid, a, err := records.AppendJoinAttr(attrs[:0], left, joinAttr)
		if err != nil {
			return err
		}
		rrid, a, err := records.AppendJoinAttr(append(a, '\t'), right, joinAttr)
		if err != nil {
			return err
		}
		attrs = a
		sim, _, _ := bytes.Cut(pair, []byte{0x1f})
		line = append(line[:0], sim...)
		line = strconv.AppendUint(append(line, '\t'), lrid, 10)
		line = strconv.AppendUint(append(line, '\t'), rrid, 10)
		line = append(append(append(line, '\t'), attrs...), '\n')
		_, err = bw.Write(line)
		return err
	}); err != nil {
		return err
	}
	return bw.Flush()
}

// writeTraceArtifacts exports the run's observability bundle: the raw
// event log (trace.jsonl), the simulated per-node timeline
// (timeline.svg), and the schema-versioned metrics document
// (metrics.json).
func writeTraceArtifacts(dir string, res *fuzzyjoin.Result, combo string, nodes int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	jf, err := os.Create(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		return err
	}
	defer jf.Close()
	if err := res.Trace.WriteJSONL(jf); err != nil {
		return err
	}
	svg := fuzzyjoin.TimelineSVG(combo+" on "+fmt.Sprintf("%d node(s)", nodes),
		fuzzyjoin.TimelineEvents(res, nodes))
	if err := os.WriteFile(filepath.Join(dir, "timeline.svg"), []byte(svg), 0o644); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(res.Export(combo), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "metrics.json"), append(doc, '\n'), 0o644)
}

func buildConfig(tau float64, fnName, s1, s2, s3 string, reducers, par int) (fuzzyjoin.Config, error) {
	var cfg fuzzyjoin.Config
	fn, err := simfn.ParseFunc(fnName)
	if err != nil {
		return cfg, err
	}
	cfg.Fn, cfg.Threshold = fn, tau
	cfg.NumReducers, cfg.Parallelism = reducers, par
	switch strings.ToUpper(s1) {
	case "BTO":
		cfg.TokenOrder = core.BTO
	case "OPTO":
		cfg.TokenOrder = core.OPTO
	default:
		return cfg, fmt.Errorf("unknown stage1 algorithm %q", s1)
	}
	switch strings.ToUpper(s2) {
	case "BK":
		cfg.Kernel = core.BK
	case "PK":
		cfg.Kernel = core.PK
	case "FVT":
		cfg.Kernel = core.FVT
	default:
		return cfg, fmt.Errorf("unknown stage2 algorithm %q", s2)
	}
	switch strings.ToUpper(s3) {
	case "BRJ":
		cfg.RecordJoin = core.BRJ
	case "OPRJ":
		cfg.RecordJoin = core.OPRJ
	default:
		return cfg, fmt.Errorf("unknown stage3 algorithm %q", s3)
	}
	return cfg, nil
}

// loadFile copies a local text file of record lines into the DFS.
func loadFile(fs *fuzzyjoin.FS, name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := fs.Create(name)
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if err := w.Append(append([]byte(line), '\n')); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return w.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fuzzyjoin:", err)
	os.Exit(1)
}
