// One benchmark per table and figure of the paper's evaluation (§6), per
// in-text study of §5 and §6.1.1, and for the filter ablation. Each benchmark drives the same
// harness as cmd/ssjexp on a reduced corpus (so `go test -bench=.`
// finishes in minutes) and reports the experiment's headline quantity as
// a custom metric; run cmd/ssjexp for the full-scale tables recorded in
// EXPERIMENTS.md.
package fuzzyjoin_test

import (
	"testing"

	"fuzzyjoin/internal/experiments"
)

// benchParams shrinks the corpora ~8× from the ssjexp defaults.
func benchParams() experiments.Params {
	return experiments.Params{
		BaseRecords:   600,
		BaseRecordsS:  650,
		Seed:          42,
		Threshold:     0.8,
		Parallelism:   4,
		MemoryPerTask: 640 << 10, // scaled with the corpus (5 MiB × 600/4800)
	}
}

// BenchmarkFig8SelfJoinTotal regenerates Figure 8: self-join total time,
// DBLP×{5,10,25}, 10 nodes, three combos.
func BenchmarkFig8SelfJoinTotal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchParams())
		r, err := s.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		// Headline: BTO-PK-OPRJ total on ×25 (the paper's ~650 s result).
		b.ReportMetric(r.Times[2][2].Total.Seconds(), "simsec/x25-BTO-PK-OPRJ")
	}
}

// BenchmarkFig9SelfJoinSpeedup regenerates Figures 9 and 10: self-join
// speedup, DBLP×10 on 2–10 nodes.
func BenchmarkFig9SelfJoinSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchParams())
		r, err := s.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup(1)[len(r.Nodes)-1], "speedup10/BTO-PK-BRJ")
	}
}

// BenchmarkTable1StageSpeedup regenerates Table 1: per-stage times on
// 2/4/8/10 nodes.
func BenchmarkTable1StageSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchParams())
		r, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.Cols) - 1
		b.ReportMetric(r.Times["PK"][last].Seconds(), "simsec/PK-10nodes")
	}
}

// BenchmarkFig11SelfJoinScaleup regenerates Figure 11: self-join scaleup
// along the 2.5×-per-node diagonal.
func BenchmarkFig11SelfJoinScaleup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchParams())
		r, err := s.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		// Headline: scaleup flatness of BTO-PK-BRJ (1.0 = perfect).
		flat := float64(r.Times[len(r.Times)-1][1].Total) / float64(r.Times[0][1].Total)
		b.ReportMetric(flat, "scaleup-ratio/BTO-PK-BRJ")
	}
}

// BenchmarkTable2StageScaleup regenerates Table 2: per-stage scaleup
// times.
func BenchmarkTable2StageScaleup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchParams())
		r, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.Cols) - 1
		b.ReportMetric(r.Times["BK"][last].Seconds()/r.Times["PK"][last].Seconds(), "BKoverPK/x25")
	}
}

// BenchmarkFig12RSJoinTotal regenerates Figure 12: R-S join total time on
// 10 nodes (BTO-PK-OPRJ reports OOM at ×25, as in the paper).
func BenchmarkFig12RSJoinTotal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchParams())
		r, err := s.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		oom := 0.0
		if r.Times[2][2].OOM {
			oom = 1
		}
		b.ReportMetric(oom, "OPRJ-OOM-at-x25")
	}
}

// BenchmarkFig13RSJoinSpeedup regenerates Figure 13: R-S speedup on 2–10
// nodes.
func BenchmarkFig13RSJoinSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchParams())
		r, err := s.Fig13()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup(0)[len(r.Nodes)-1], "speedup10/BTO-BK-BRJ")
	}
}

// BenchmarkFig14RSJoinScaleup regenerates Figure 14: R-S scaleup
// (BTO-PK-OPRJ runs out of memory from ×20, as in the paper).
func BenchmarkFig14RSJoinScaleup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchParams())
		r, err := s.Fig14()
		if err != nil {
			b.Fatal(err)
		}
		oom := 0.0
		for _, row := range r.Times {
			if row[2].OOM {
				oom++
			}
		}
		b.ReportMetric(oom, "OPRJ-OOM-cells")
	}
}

// BenchmarkGroupCountAblation regenerates the §6.1.1 token-group study
// (best performance at one group per token).
func BenchmarkGroupCountAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchParams())
		r, err := s.GroupAblation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Replicas[len(r.Replicas)-1]), "replicas/one-per-token")
	}
}

// BenchmarkStage3SkewStats regenerates the §6.1.1 skew statistics (RID
// frequency in join pairs; records per reduce instance).
func BenchmarkStage3SkewStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchParams())
		r, err := s.SkewStats()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RIDMean, "rid-freq-mean")
		b.ReportMetric(float64(r.RIDMax), "rid-freq-max")
	}
}

// BenchmarkBlockProcessing regenerates the §5 comparison: unblocked vs
// map-based vs reduce-based, identical results.
func BenchmarkBlockProcessing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchParams())
		r, err := s.BlockProcessing()
		if err != nil {
			b.Fatal(err)
		}
		if r.Pairs[0] != r.Pairs[1] || r.Pairs[1] != r.Pairs[2] {
			b.Fatalf("block modes disagree: %v", r.Pairs)
		}
		b.ReportMetric(float64(r.Replicas[1])/float64(r.Replicas[0]), "map-based-replication")
	}
}

// BenchmarkFilterAblation measures each filter's contribution inside the
// PK kernel.
func BenchmarkFilterAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchParams())
		r, err := s.FilterAblation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Verified[0])/float64(r.Verified[len(r.Verified)-1]), "verify-reduction")
	}
}
