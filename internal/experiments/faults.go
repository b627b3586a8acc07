package experiments

import (
	"fmt"
	"time"

	"fuzzyjoin/internal/core"
	"fuzzyjoin/internal/datagen"
	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
)

// ---- Fault-tolerance: makespan under injected task failures -------------

// FaultAblationResult reports the end-to-end BTO-PK-BRJ self-join under
// deterministically injected task-attempt failures: Hadoop's transparent
// re-execution is the reliability property the paper leans on (§2.1),
// and this sweep measures what that re-execution costs on the simulated
// cluster. Failed attempts occupy their slot for their measured cost
// before the retry is rescheduled, so the makespan grows with the
// failure rate while output and pair counts stay byte-identical.
type FaultAblationResult struct {
	Rates   []float64
	Times   []time.Duration // simulated makespan at each rate
	Retries []int           // re-executed task attempts at each rate
	Wasted  []time.Duration // measured cost of the failed attempts
	Pairs   []int64         // joined pairs (must be invariant)
}

// FaultAblation sweeps the injected failure rate for DBLP×5 at 10 nodes
// with up to 3 attempts per task.
func (s *Suite) FaultAblation() (*FaultAblationResult, error) {
	const factor, nodes = 5, 10
	res := &FaultAblationResult{}
	for _, rate := range []float64{0, 0.02, 0.05, 0.10, 0.20} {
		fs := dfs.New(dfs.Options{BlockSize: s.w.p.BlockSize, Nodes: nodes})
		if err := mapreduce.WriteTextFile(fs, "dblp", datagen.Lines(s.w.dblpTimes(factor))); err != nil {
			return nil, err
		}
		cfg := s.w.baseCfg(fs, nodes)
		cfg.Work = "ft"
		cfg.Kernel, cfg.RecordJoin = core.PK, core.BRJ
		cfg.Retry = mapreduce.RetryPolicy{MaxAttempts: 3}
		if rate > 0 {
			cfg.FaultInjector = mapreduce.RateInjector{Rate: rate, Seed: s.w.p.Seed}
		}
		r, err := core.SelfJoin(cfg, "dblp")
		if err != nil {
			return nil, fmt.Errorf("fault rate %.2f: %w", rate, err)
		}
		total := simulate(spec(nodes), r.AllJobs())
		var retries int
		var wasted time.Duration
		for _, m := range r.AllJobs() {
			for _, tasks := range [][]mapreduce.TaskMetrics{m.MapTasks, m.ReduceTasks} {
				for _, t := range tasks {
					if t.Attempts > 1 {
						retries += t.Attempts - 1
						for _, c := range t.AttemptCosts[:len(t.AttemptCosts)-1] {
							wasted += c
						}
					}
				}
			}
		}
		res.Rates = append(res.Rates, rate)
		res.Times = append(res.Times, total)
		res.Retries = append(res.Retries, retries)
		res.Wasted = append(res.Wasted, wasted)
		res.Pairs = append(res.Pairs, r.Pairs)
	}
	return res, nil
}

// Render prints the sweep.
func (r *FaultAblationResult) Render() string {
	header := []string{"fault rate", "makespan(s)", "retries", "wasted(s)", "pairs"}
	var rows [][]string
	for i, rate := range r.Rates {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", rate*100),
			seconds(r.Times[i], false),
			fmt.Sprintf("%d", r.Retries[i]),
			fmt.Sprintf("%.3f", r.Wasted[i].Seconds()),
			fmt.Sprintf("%d", r.Pairs[i]),
		})
	}
	note := "output invariant across rates"
	for i := 1; i < len(r.Pairs); i++ {
		if r.Pairs[i] != r.Pairs[0] {
			note = "WARNING: pair counts diverged under faults"
			break
		}
	}
	return "Fault-tolerance ablation: BTO-PK-BRJ self-join, DBLP x5, 10 nodes, <=3 attempts/task\n" +
		table(header, rows) + note + "\n"
}
