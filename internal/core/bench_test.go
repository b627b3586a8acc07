package core

import (
	"flag"
	"fmt"
	"testing"

	"fuzzyjoin/internal/datagen"
	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/records"
)

// Per-stage micro-benchmarks over a realistic clustered corpus, one per
// stage algorithm (the ssjexp harness measures these at full scale; these
// track regressions).

func benchCorpus(b *testing.B, n int) (*dfs.FS, []string) {
	b.Helper()
	lines := makeLines(77, n, 1)
	fs := dfs.New(dfs.Options{BlockSize: 8 << 10, Nodes: 4})
	if err := mapreduce.WriteTextFile(fs, "in", lines); err != nil {
		b.Fatal(err)
	}
	return fs, lines
}

func benchStage1(b *testing.B, alg TokenOrderAlg) {
	fs, _ := benchCorpus(b, 600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{FS: fs, Work: fmt.Sprintf("w%d", i), TokenOrder: alg,
			NumReducers: 4, Parallelism: 4}
		if _, _, err := Stage1(cfg, "in"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStage1BTO(b *testing.B)  { benchStage1(b, BTO) }
func BenchmarkStage1OPTO(b *testing.B) { benchStage1(b, OPTO) }

func benchStage2(b *testing.B, kernel KernelAlg) {
	fs, _ := benchCorpus(b, 600)
	cfg := Config{FS: fs, Work: "s1", NumReducers: 4, Parallelism: 4}
	tokenFile, _, err := Stage1(cfg, "in")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{FS: fs, Work: fmt.Sprintf("w%d", i), Kernel: kernel,
			NumReducers: 4, Parallelism: 4}
		if _, _, err := Stage2Self(cfg, "in", tokenFile); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStage2BK(b *testing.B) { benchStage2(b, BK) }
func BenchmarkStage2PK(b *testing.B) { benchStage2(b, PK) }

func benchStage3(b *testing.B, alg RecordJoinAlg) {
	fs, _ := benchCorpus(b, 600)
	cfg := Config{FS: fs, Work: "s1", NumReducers: 4, Parallelism: 4}
	tokenFile, _, err := Stage1(cfg, "in")
	if err != nil {
		b.Fatal(err)
	}
	cfg.Work = "s2"
	cfg.Kernel = PK
	pairs, _, err := Stage2Self(cfg, "in", tokenFile)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{FS: fs, Work: fmt.Sprintf("w%d", i), RecordJoin: alg,
			NumReducers: 4, Parallelism: 4}
		if _, _, err := Stage3Self(cfg, "in", pairs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStage3BRJ(b *testing.B)  { benchStage3(b, BRJ) }
func BenchmarkStage3OPRJ(b *testing.B) { benchStage3(b, OPRJ) }

func BenchmarkSelfJoinEndToEnd(b *testing.B) {
	fs, _ := benchCorpus(b, 600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{FS: fs, Work: fmt.Sprintf("w%d", i), Kernel: PK,
			NumReducers: 4, Parallelism: 4}
		if _, err := SelfJoin(cfg, "in"); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	allocRecords = flag.Int("alloc-records", 20000, "corpus size of BenchmarkJoinAllocProfile (make allocprofile W=N)")
	allocRecipe  = flag.String("alloc-recipe", "self", "recipe of BenchmarkJoinAllocProfile: self (self_dblp), rs (rs_citeseer) or dense (self_dense) (make allocprofile R=rs, R=dense)")
)

// BenchmarkJoinAllocProfile is the join `make allocprofile` takes its
// allocation profile of, built as the benchmark builds its workloads on a
// 4-node DFS at τ 0.8: the self_dblp recipe (BTO-PK-BRJ, W/4 DBLP-shaped
// records increased ×4, so -alloc-records=100000 is self_dblp's size), or
// with -alloc-recipe=rs the rs_citeseer recipe (BTO-FVT-BRJ, W/4 records
// as R and W/4 CiteseerX-shaped S records overlapping R, both increased
// ×2 under one shared token order), or with -alloc-recipe=dense the
// self_dense recipe (OPTO-BK-OPRJ at τ 0.6, W/4 records over a
// 1,024-token Zipf-1.05 vocabulary increased ×4). Each join's output is
// read back and parsed, as the benchmark's timed interval does, and its
// files are removed afterwards. PERF.md's per-site tables come from it.
func BenchmarkJoinAllocProfile(b *testing.B) {
	base := Config{Kernel: PK, Threshold: 0.8}
	inputs := []string{"in"}
	spec := datagen.Spec{Records: *allocRecords / 4, Seed: 1}
	if *allocRecipe == "dense" {
		base = Config{TokenOrder: OPTO, Kernel: BK, RecordJoin: OPRJ, Threshold: 0.6}
		spec.ZipfSkew, spec.VocabSize = 1.05, 1024
	}
	r := datagen.Generate(spec)
	var s []records.Record
	if *allocRecipe == "rs" {
		base.Kernel, inputs = FVT, []string{"in", "s"}
		s = datagen.GenerateOverlapping(r, datagen.Spec{Records: len(r), Seed: 2,
			Style: datagen.CiteseerLike, StartRID: 100_000_000}, 0.1)
		order := datagen.SharedOrder(r, s)
		r, s = datagen.IncreaseWithOrder(r, 2, order), datagen.IncreaseWithOrder(s, 2, order)
	} else {
		r = datagen.Increase(r, 4)
	}
	fs := dfs.New(dfs.Options{Nodes: 4})
	if err := mapreduce.WriteTextFile(fs, "in", datagen.Lines(r)); err != nil {
		b.Fatal(err)
	}
	if s != nil {
		if err := mapreduce.WriteTextFile(fs, "s", datagen.Lines(s)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := base
		cfg.FS, cfg.Work, cfg.Parallelism = fs, fmt.Sprintf("w%d", i), 2
		res, err := join(cfg, inputs...)
		if err != nil {
			b.Fatal(err)
		}
		// Collect the pairs as fuzzyjoin.ReadJoinedPairs does.
		joined := make([]records.JoinedPair, 0, mapreduce.Records(fs, res.Output+"/"))
		if err := WalkJoined(fs, res.Output, func(sim float64, left, right []byte) error {
			l, err := records.ParseLine(string(left))
			if err != nil {
				return err
			}
			r, err := records.ParseLine(string(right))
			if err != nil {
				return err
			}
			joined = append(joined, records.JoinedPair{Left: l, Right: r, Sim: sim})
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		fs.RemovePrefix(cfg.Work)
	}
}
