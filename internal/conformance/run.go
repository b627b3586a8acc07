package conformance

import (
	"fmt"

	"fuzzyjoin/internal/core"
	"fuzzyjoin/internal/datagen"
	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/records"
)

// config builds the core.Config for one variant. The fixed small knobs
// (reducer count, group count, block count, parallelism width) are
// deliberately non-trivial so task and group boundaries actually land
// inside the data, but they are result-irrelevant: conformance is
// precisely the proof that they stay result-irrelevant.
func (v Variant) config(w Workload, p Params, fs *dfs.FS) core.Config {
	p = p.fill()
	cfg := core.Config{
		FS:          fs,
		Work:        "w",
		Tokenizer:   p.Tokenizer,
		JoinFields:  p.JoinFields,
		Fn:          p.Fn,
		Threshold:   p.Threshold,
		TokenOrder:  v.TokenOrder,
		Kernel:      v.Kernel,
		RecordJoin:  v.RecordJoin,
		Routing:     v.Routing,
		NumReducers: 3,
		Parallelism: 1,
	}
	if v.Routing == core.GroupedTokens {
		cfg.NumGroups = 5
	}
	switch v.Block {
	case BlocksMap:
		cfg.BlockMode = core.MapBlocks
		cfg.NumBlocks = 3
	case BlocksReduce:
		cfg.BlockMode = core.ReduceBlocks
		cfg.NumBlocks = 3
	case BlocksLenRoute:
		cfg.LengthRouting = true
	}
	switch v.Exec {
	case ExecFaults:
		cfg.Retry = mapreduce.RetryPolicy{MaxAttempts: 3}
		cfg.FaultInjector = mapreduce.RateInjector{Rate: 0.25, Seed: w.Seed}
	case ExecParallel:
		cfg.Parallelism = 4
	case ExecDist:
		cfg.Runner = p.Runner
		cfg.Parallelism = 2
	}
	return cfg
}

// checkExec rejects variants whose execution mode needs setup the
// caller didn't provide, so a dist sweep without a worker session fails
// loudly instead of silently running in-process.
func (v Variant) checkExec(p Params) error {
	if v.Exec == ExecDist && p.Runner == nil {
		return fmt.Errorf("conformance: variant %s needs Params.Runner (a distrib worker session)", v.Name())
	}
	return nil
}

// runLinesSelf executes a variant's self-join pipeline over explicit
// record lines and returns the canonically sorted result pairs. The
// invariant checks drive this directly with mutated inputs.
func (v Variant) runLinesSelf(w Workload, p Params, lines []string) ([]records.RIDPair, error) {
	if err := v.checkExec(p); err != nil {
		return nil, err
	}
	fs := dfs.New(dfs.Options{BlockSize: 2 << 10, Nodes: 4})
	if err := mapreduce.WriteTextFile(fs, "in", lines); err != nil {
		return nil, err
	}
	res, err := core.SelfJoin(v.config(w, p, fs), "in")
	if err != nil {
		return nil, err
	}
	return sortedRIDPairs(fs, res.Output)
}

// runLinesRS is runLinesSelf for the R-S join.
func (v Variant) runLinesRS(w Workload, p Params, rLines, sLines []string) ([]records.RIDPair, error) {
	if err := v.checkExec(p); err != nil {
		return nil, err
	}
	fs := dfs.New(dfs.Options{BlockSize: 2 << 10, Nodes: 4})
	if err := mapreduce.WriteTextFile(fs, "R", rLines); err != nil {
		return nil, err
	}
	if err := mapreduce.WriteTextFile(fs, "S", sLines); err != nil {
		return nil, err
	}
	res, err := core.RSJoin(v.config(w, p, fs), "R", "S")
	if err != nil {
		return nil, err
	}
	return sortedRIDPairs(fs, res.Output)
}

// sortedRIDPairs collects a join's output as canonically sorted RID
// pairs, the record-identity view the oracle diffs against.
func sortedRIDPairs(fs *dfs.FS, output string) ([]records.RIDPair, error) {
	var pairs []records.RIDPair
	if err := core.WalkJoined(fs, output, func(sim float64, left, right []byte) error {
		a, err := records.RID(left)
		if err != nil {
			return err
		}
		b, err := records.RID(right)
		if err != nil {
			return err
		}
		pairs = append(pairs, records.RIDPair{A: a, B: b, Sim: sim})
		return nil
	}); err != nil {
		return nil, err
	}
	ppjoin.SortPairs(pairs)
	return pairs, nil
}

// Run generates the variant's workload and executes its pipeline,
// returning canonically sorted result pairs.
func (v Variant) Run(w Workload, p Params) ([]records.RIDPair, error) {
	if v.RS {
		r, s := w.RSRecords()
		return v.runLinesRS(w, p, datagen.Lines(r), datagen.Lines(s))
	}
	return v.runLinesSelf(w, p, datagen.Lines(w.SelfRecords()))
}

// Oracle computes the variant's ground truth for the same workload.
func (v Variant) Oracle(w Workload, p Params) []records.RIDPair {
	if v.RS {
		r, s := w.RSRecords()
		return OracleRS(r, s, p)
	}
	return OracleSelf(w.SelfRecords(), p)
}

// simTol is the similarity comparison tolerance: final output renders
// similarities with 6 decimals (plus a 1e-9 fixed-point step in Stage
// 2), so faithful values differ from the oracle's by at most ~5e-7.
const simTol = 1e-6

// Diff compares two canonically sorted result sets and describes the
// first divergence ("" when equal): a pair missing from got, an extra
// pair in got, or a similarity mismatch beyond simTol.
func Diff(got, want []records.RIDPair) string {
	i, j := 0, 0
	for i < len(got) && j < len(want) {
		g, w := got[i], want[j]
		switch {
		case g.A == w.A && g.B == w.B:
			if d := g.Sim - w.Sim; d > simTol || d < -simTol {
				return fmt.Sprintf("pair (%d,%d): sim %.9f, oracle %.9f", g.A, g.B, g.Sim, w.Sim)
			}
			i++
			j++
		case g.A < w.A || (g.A == w.A && g.B < w.B):
			return fmt.Sprintf("extra pair (%d,%d) sim %.6f", g.A, g.B, g.Sim)
		default:
			return fmt.Sprintf("missing pair (%d,%d) sim %.6f", w.A, w.B, w.Sim)
		}
	}
	if i < len(got) {
		g := got[i]
		return fmt.Sprintf("extra pair (%d,%d) sim %.6f", g.A, g.B, g.Sim)
	}
	if j < len(want) {
		w := want[j]
		return fmt.Sprintf("missing pair (%d,%d) sim %.6f", w.A, w.B, w.Sim)
	}
	return ""
}
