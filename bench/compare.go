package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// resultFile is what a run over every workload writes: the provenance of
// the run and each workload's results.
type resultFile struct {
	Host       string  `json:"host"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	// Workloads maps a workload name to its end-to-end result and, when
	// the traced pass ran, its per-layer result.
	Workloads map[string]workloadResults `json:"workloads"`
}

type workloadResults struct {
	EndToEnd result  `json:"end_to_end"`
	PerLayer *result `json:"per_layer,omitempty"`
}

func provenance(o options) resultFile {
	host, _ := os.Hostname() // provenance only; an unnamed host is recorded as ""
	commit := "unknown"      // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return resultFile{
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit, Seed: o.seed, Scale: o.scale, Seconds: o.seconds,
		Workloads: map[string]workloadResults{},
	}
}

// runAll runs every workload, each pass in a child process of its own so
// peak RSS and the garbage collector start clean, and writes the result
// file. It reports whether every output was correct.
func runAll(o options, out string) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	rf := provenance(o)
	fmt.Printf("# host %s nproc %d GOMAXPROCS %d %s commit %s seed %d scale %g\n",
		rf.Host, rf.NProc, rf.GOMAXPROCS, rf.Go, rf.Commit, rf.Seed, rf.Scale)
	if rf.NProc < 2 {
		fmt.Println("# WARNING: cpus < 2 — dist_self and every parallel figure from this host is meaningless")
	}
	ok := true
	for _, w := range workloads {
		var wr workloadResults
		if wr.EndToEnd, err = runChild(exe, w.name, o, false); err != nil {
			return false, err
		}
		ok = ok && wr.EndToEnd.Correct
		if o.traced {
			var traced result
			if traced, err = runChild(exe, w.name, o, true); err != nil {
				return false, err
			}
			wr.PerLayer = &traced
			ok = ok && traced.Correct
		}
		rf.Workloads[w.name] = wr
	}
	doc, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return false, err
	}
	if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("# wrote %s\n", out)
	return ok, nil
}

// runChild re-executes this binary for one pass of one workload, echoes
// its output, and parses the result from its last line.
func runChild(exe, name string, o options, traced bool) (result, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	fmt.Printf("\n== %s (trace %s)\n", name, trace)
	cmd := exec.Command(exe, "-workload", name, "-trace", trace,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-scale", fmt.Sprint(o.scale),
		"-out", filepath.Join(o.outDir, "result.json"))
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	// Exit code 1 still prints a result, with correct false.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s: last output line is not a result: %w", name, err)
	}
	return res, nil
}

// benchmarkSpec is the part of BENCHMARK.json the comparison reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints one row per workload × end-to-end metric: the
// value in file A, the value in file B, and whether B is worse than A
// by more than the bound BENCHMARK.json fixes. It reports false on any
// regression or any rise in the share of failed operations, and refuses
// files that were not recorded under the same conditions.
func compareFiles(w io.Writer, boundsPath, aPath, bPath string) (bool, error) {
	var spec benchmarkSpec
	var a, b resultFile
	if err := readJSON(boundsPath, &spec); err != nil {
		return false, err
	}
	if err := readJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, err
	}
	if a.NProc != b.NProc || a.GOMAXPROCS != b.GOMAXPROCS || a.Seed != b.Seed || a.Scale != b.Scale || a.Seconds != b.Seconds {
		return false, fmt.Errorf("refusing to compare: nproc %d/%d, GOMAXPROCS %d/%d, seed %d/%d, scale %g/%g, seconds %g/%g differ",
			a.NProc, b.NProc, a.GOMAXPROCS, b.GOMAXPROCS, a.Seed, b.Seed, a.Scale, b.Scale, a.Seconds, b.Seconds)
	}
	if a.Scale != 1 {
		fmt.Fprintf(w, "# note: scale %g — only scale 1 is gated\n", a.Scale)
	}
	ok := true
	out := bufio.NewWriter(w)
	defer out.Flush()
	fmt.Fprintf(out, "%-12s %-12s %14s %14s %8s %7s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, wl := range workloads {
		ra, inA := a.Workloads[wl.name]
		rb, inB := b.Workloads[wl.name]
		if !inA || !inB {
			return false, fmt.Errorf("workload %s is missing from one file", wl.name)
		}
		if wl.mode == distMode && a.NProc < 2 {
			fmt.Fprintf(out, "# WARNING: cpus < 2 — %s shows no parallelism on this host; do not read a speedup from it\n", wl.name)
		}
		for _, em := range spec.EndToEnd {
			va, vb := ra.EndToEnd.Metrics[em.Name].Value, rb.EndToEnd.Metrics[em.Name].Value
			worse := (vb - va) / va
			if em.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > em.Bound {
				verdict, ok = "REGRESSION", false
			}
			fmt.Fprintf(out, "%-12s %-12s %14.6g %14.6g %+7.1f%% %6.0f%%  %s\n",
				wl.name, em.Name, va, vb, 100*(vb-va)/va, 100*em.Bound, verdict)
		}
		shareA := ratio(float64(ra.EndToEnd.Failed), float64(ra.EndToEnd.Attempted))
		shareB := ratio(float64(rb.EndToEnd.Failed), float64(rb.EndToEnd.Attempted))
		verdict := "ok"
		if shareB > shareA {
			verdict, ok = "REGRESSION", false
		}
		fmt.Fprintf(out, "%-12s %-12s %14.6g %14.6g %8s %7s  %s\n", wl.name, "failed_share", shareA, shareB, "", "0", verdict)
	}
	return ok, nil
}
