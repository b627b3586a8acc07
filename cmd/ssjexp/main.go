// Command ssjexp runs the paper-reproduction experiment suite and prints
// every table and figure of the evaluation (§6), the in-text studies of
// §2.2, §5 and §6.1.1, the filter ablation and the planner ablation. See
// EXPERIMENTS.md for the recorded paper-vs-measured comparison.
//
// Usage:
//
//	ssjexp [-base N] [-baseS N] [-seed S] [-tau T] [-par P] [-mem BYTES] [-only LIST]
//
// -only selects a comma-separated subset of experiment names (fig8, fig9,
// table1, fig11, table2, fig12, fig13, fig14, groups, skew, blocks,
// filters, singlestage, tau, planner); an unknown name is a usage error
// (exit 2).
//
// "planner" sweeps the cost planner against a hand-tuned grid on three
// Zipf-skewed workloads; -planner-out FILE records the ablation as JSON
// (the committed BENCH_planner.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"fuzzyjoin/internal/experiments"
)

func main() {
	var (
		svgDir = flag.String("svg", "", "also write the figure-shaped results as SVG files into this directory")
		base   = flag.Int("base", 0, "x1 DBLP-like corpus size (default 1200)")
		baseS  = flag.Int("baseS", 0, "x1 CITESEERX-like corpus size (default 1300)")
		seed   = flag.Int64("seed", 0, "generation seed (default 42)")
		tau    = flag.Float64("tau", 0, "similarity threshold (default 0.8)")
		par    = flag.Int("par", 0, "host parallelism (default 1: experiments keep task costs stable; the join CLI defaults to all CPUs)")
		mem    = flag.Int64("mem", -1, "per-task memory budget in bytes (default 1 MiB; 0 disables)")
		only   = flag.String("only", "", "comma-separated experiment subset")

		plannerOut = flag.String("planner-out", "", "write the planner ablation result as JSON to this file")
	)
	flag.Parse()

	p := experiments.DefaultParams()
	if *base > 0 {
		p.BaseRecords = *base
	}
	if *baseS > 0 {
		p.BaseRecordsS = *baseS
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	if *tau > 0 {
		p.Threshold = *tau
	}
	if *par > 0 {
		p.Parallelism = *par
	}
	if *mem >= 0 {
		p.MemoryPerTask = *mem
	}

	s := experiments.NewSuite(p)
	type renderer interface{ Render() string }
	type svger interface{ SVG() string }
	suite := []struct {
		name string
		fn   func() (renderer, error)
	}{
		{"fig8", func() (renderer, error) { return s.Fig8() }},
		{"fig9", func() (renderer, error) { return s.Fig9() }},
		{"table1", func() (renderer, error) { return s.Table1() }},
		{"fig11", func() (renderer, error) { return s.Fig11() }},
		{"table2", func() (renderer, error) { return s.Table2() }},
		{"fig12", func() (renderer, error) { return s.Fig12() }},
		{"fig13", func() (renderer, error) { return s.Fig13() }},
		{"fig14", func() (renderer, error) { return s.Fig14() }},
		{"groups", func() (renderer, error) { return s.GroupAblation() }},
		{"skew", func() (renderer, error) { return s.SkewStats() }},
		{"blocks", func() (renderer, error) { return s.BlockProcessing() }},
		{"filters", func() (renderer, error) { return s.FilterAblation() }},
		{"singlestage", func() (renderer, error) { return s.SingleStage() }},
		{"tau", func() (renderer, error) { return s.ThresholdSweep() }},
		{"planner", func() (renderer, error) { return s.PlannerAblation() }},
	}
	var names []string
	for _, e := range suite {
		names = append(names, e.name)
	}
	want, err := selectExperiments(*only, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssjexp:", err)
		flag.Usage()
		os.Exit(2)
	}

	fmt.Printf("fuzzyjoin experiment suite — base DBLP-like %d recs, CITESEERX-like %d recs, seed %d, tau %.2f\n",
		p.BaseRecords, p.BaseRecordsS, p.Seed, p.Threshold)
	fmt.Printf("cluster model: 4 map + 4 reduce slots/node; per-task memory budget %d bytes\n\n", p.MemoryPerTask)

	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "ssjexp:", err)
			os.Exit(1)
		}
	}
	writeSVG := func(name, svg string) {
		if *svgDir == "" || svg == "" {
			return
		}
		path := filepath.Join(*svgDir, name+".svg")
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ssjexp:", err)
			os.Exit(1)
		}
		fmt.Printf("[wrote %s]\n", path)
	}

	for _, e := range suite {
		name := e.name
		if len(want) > 0 && !want[name] {
			continue
		}
		start := time.Now()
		r, err := e.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(r.Render())
		if sv, ok := r.(svger); ok {
			writeSVG(name, sv.SVG())
		}
		if sp, ok := r.(*experiments.SpeedupResult); ok {
			writeSVG(name+"-relative", sp.RelativeSVG())
		}
		if pr, ok := r.(*experiments.PlannerResult); ok && *plannerOut != "" {
			doc, err := pr.JSON()
			if err == nil {
				err = os.WriteFile(*plannerOut, doc, 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "ssjexp:", err)
				os.Exit(1)
			}
			fmt.Printf("[wrote %s]\n", *plannerOut)
		}
		fmt.Printf("[%s ran in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

// selectExperiments parses -only, a comma-separated subset of names; an
// empty set runs every experiment.
func selectExperiments(only string, names []string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, n := range strings.Split(only, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		if !slices.Contains(names, n) {
			return nil, fmt.Errorf("-only: unknown experiment %q (known: %s)", n, strings.Join(names, ", "))
		}
		want[n] = true
	}
	return want, nil
}
