package experiments

// The fvt ablation measures the Filter-and-Verification Tree kernel's
// core claim — candidate-free Stage 2 — against BK and PK on a
// Zipf-skewed R-S workload, where candidate materialization hurts the
// most. All three kernels must produce the identical pair set; the
// ablation records the simulated makespan, the map→reduce shuffle
// volume, the Stage 2 *output* volume (equal across kernels: every
// kernel emits a pair once, from the group that owns it), and the
// candidate counters.

import (
	"fmt"
	"time"

	"fuzzyjoin/internal/core"
	"fuzzyjoin/internal/datagen"
	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
)

// FVTAblationResult holds one row per Stage 2 kernel.
type FVTAblationResult struct {
	Title string
	Rows  []string
	// Times is the simulated Stage 2 makespan per row.
	Times []time.Duration
	// ShuffleBytes is the job's map→reduce shuffle volume.
	ShuffleBytes []int64
	// OutputBytes is the Stage 2 reduce-output volume (the RID-pair
	// stream Stage 3 consumes).
	OutputBytes []int64
	// Materialized, Avoided, Verified are the candidate counters
	// (stage2.candidates_materialized / candidates or candidates_avoided
	// / verified).
	Materialized []int64
	Avoided      []int64
	Verified     []int64
	// Results is stage2.results, the RID pairs Stage 2 wrote; Pairs is the
	// distinct RID-pair count, identical across rows by construction
	// (verified, not assumed). Exact-once emission makes the two equal.
	Results []int64
	Pairs   []int
}

// Render prints the comparison.
func (r *FVTAblationResult) Render() string {
	header := []string{"kernel", "stage2(s)", "shuffle(B)", "s2 out(B)",
		"materialized", "avoided", "verified", "distinct pairs"}
	var rows [][]string
	for i, label := range r.Rows {
		rows = append(rows, []string{label, seconds(r.Times[i], false),
			fmt.Sprintf("%d", r.ShuffleBytes[i]), fmt.Sprintf("%d", r.OutputBytes[i]),
			fmt.Sprintf("%d", r.Materialized[i]), fmt.Sprintf("%d", r.Avoided[i]),
			fmt.Sprintf("%d", r.Verified[i]), fmt.Sprintf("%d", r.Pairs[i])})
	}
	return r.Title + "\n" + table(header, rows)
}

// FVTAblation compares BK, PK, and FVT on a Zipf-skewed R-S join
// (exponent 2.0, ~4× the default head concentration) over 10 nodes.
func (s *Suite) FVTAblation() (*FVTAblationResult, error) {
	const nodes = 10
	const zipf = 2.0
	p := s.w.p

	// A dedicated skewed corpus pair: the suite's cached workloads keep
	// the paper's default 1.3 exponent, so the ablation generates its
	// own (smaller) relations with a hot token head.
	r := datagen.Generate(datagen.Spec{
		Records: p.BaseRecords / 2, Seed: p.Seed + 100, Style: datagen.DBLPLike,
		ZipfSkew: zipf,
	})
	sRecs := datagen.GenerateOverlapping(r, datagen.Spec{
		Records: p.BaseRecordsS / 2, Seed: p.Seed + 101, Style: datagen.CiteseerLike,
		ZipfSkew: zipf, StartRID: uint64(p.BaseRecords) * 100,
	}, 0.5)

	fs := dfs.New(dfs.Options{BlockSize: p.BlockSize, Nodes: nodes})
	if err := mapreduce.WriteTextFile(fs, "r", datagen.Lines(r)); err != nil {
		return nil, err
	}
	if err := mapreduce.WriteTextFile(fs, "s", datagen.Lines(sRecs)); err != nil {
		return nil, err
	}

	cfg := s.w.baseCfg(fs, nodes)
	cfg.TokenOrder, cfg.Work = core.BTO, "fvt-bto"
	tokenFile, _, err := core.Stage1(cfg, "r")
	if err != nil {
		return nil, fmt.Errorf("BTO: %w", err)
	}

	res := &FVTAblationResult{
		Title: fmt.Sprintf("FVT ablation: Zipf-skewed R-S join (exponent %.1f, R %d × S %d recs, %d nodes)",
			zipf, len(r), len(sRecs), nodes),
	}
	variants := []struct {
		label  string
		kernel core.KernelAlg
	}{
		{"BK", core.BK},
		{"PK", core.PK},
		{"FVT", core.FVT},
	}
	for i, v := range variants {
		cfg := s.w.baseCfg(fs, nodes)
		cfg.Kernel = v.kernel
		cfg.Work = fmt.Sprintf("fvt-v%d", i)
		pairsPrefix, ms, err := core.Stage2RS(cfg, "r", "s", tokenFile)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.label, err)
		}
		t := simulate(spec(nodes), ms)
		var shuffle, out, mat, avoided, verified, results int64
		for _, m := range ms {
			shuffle += m.TotalShuffleBytes()
			for _, rt := range m.ReduceTasks {
				out += rt.OutputBytes
			}
			mat += m.Counters["stage2.candidates_materialized"]
			// BK/PK count considered pairs as candidates; FVT counts
			// the pairs it proved away without forming them.
			avoided += m.Counters["stage2.candidates_avoided"]
			verified += m.Counters["stage2.verified"]
			results += m.Counters["stage2.results"]
		}
		n, err := distinctPairs(fs, pairsPrefix)
		if err != nil {
			return nil, fmt.Errorf("%s: reading pairs: %w", v.label, err)
		}
		res.Rows = append(res.Rows, v.label)
		res.Times = append(res.Times, t)
		res.ShuffleBytes = append(res.ShuffleBytes, shuffle)
		res.OutputBytes = append(res.OutputBytes, out)
		res.Materialized = append(res.Materialized, mat)
		res.Avoided = append(res.Avoided, avoided)
		res.Verified = append(res.Verified, verified)
		res.Results = append(res.Results, results)
		res.Pairs = append(res.Pairs, n)
	}
	for i := 1; i < len(res.Pairs); i++ {
		if res.Pairs[i] != res.Pairs[0] {
			return nil, fmt.Errorf("kernel divergence: %s found %d distinct pairs, %s found %d",
				res.Rows[i], res.Pairs[i], res.Rows[0], res.Pairs[0])
		}
	}
	return res, nil
}
