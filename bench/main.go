// Command bench is the repository's benchmark: it generates each
// workload from a seed, runs it for real through the public entry points
// (no simulator), checks every output against an independent reference,
// and prints the metrics BENCHMARK.json names. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"fuzzyjoin/internal/distrib"
)

// options are the flags of one workload run.
type options struct {
	seed    int64
	seconds float64
	scale   float64
	traced  bool
	outDir  string
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	// Forked distrib workers re-execute this binary; this call never
	// returns in a worker.
	distrib.MaybeWorker()

	var o options
	name := flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "workload generation seed")
	flag.Float64Var(&o.seconds, "seconds", 12, "how long each workload's timed joins or rounds run")
	flag.Float64Var(&o.scale, "scale", 1, "multiply every record and operation count (only scale 1 is gated)")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	out := flag.String("out", filepath.Join("bench", "out", "result.json"), "result file written when every workload is run")
	compare := flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	bounds := flag.String("bounds", "BENCHMARK.json", "file holding the regression bounds -compare checks against")
	flag.Parse()
	o.traced = *trace != 0
	o.outDir = filepath.Dir(*out)

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare A.json B.json"))
		}
		ok, err := compareFiles(os.Stdout, *bounds, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *name == "":
		ok, err := runAll(o, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := runWorkload(w, o)
		if err != nil {
			fatal(err)
		}
		res.Metrics.print()
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runWorkload runs one workload in this process: the untraced end-to-end
// run, or with -trace 1 the traced per-layer pass.
func runWorkload(w *workload, o options) (result, error) {
	c := &checker{}
	var m metrics
	var err error
	switch {
	case o.traced:
		m, err = runTraced(w, o, c)
	case w.mode == serveMode:
		m, err = runServe(w, w.generate(o.seed, o.scale, nil, -1), o, c)
	default:
		m, err = runBatch(w, w.generate(o.seed, o.scale, nil, -1), o, c)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	return result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}, nil
}
