package plan

import (
	"reflect"
	"strings"
	"testing"

	"fuzzyjoin/internal/core"
	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/records"
)

// FuzzPlannerDeterministic pins the planner's two contracts on
// arbitrary inputs:
//
//  1. Purity — sampling and deciding are pure functions of (input,
//     seed): running them twice yields byte-identical samples and
//     plans, and every emitted choice passes core.Validate.
//  2. Admissibility — the planner never alters join results: for small
//     workloads the fuzzer runs the join with the planner's chosen
//     knobs and with the paper-default knobs and requires identical
//     output pairs.
func FuzzPlannerDeterministic(f *testing.F) {
	f.Add(int64(1), "1\tefficient parallel set similarity joins\tvernica carey li\t2010\n"+
		"2\tparallel set similarity joins using mapreduce\tvernica carey\t2010\n"+
		"3\tfuzzy joins at scale\tsmith jones\t2011\n")
	f.Add(int64(42), "10\talpha beta gamma delta\ta b\tx\n11\talpha beta gamma\ta b\tx\n"+
		"12\talpha beta gamma delta epsilon\tb c\ty\n13\tzeta eta theta\tc d\tz\n")
	f.Add(int64(-7), "1\tone common common common token\tauthor\t\n"+
		"2\tcommon words everywhere common\tauthor\t\nnot a record\n\n")
	f.Add(int64(9000), "5\tshort\ta\t\n")

	f.Fuzz(func(t *testing.T, seed int64, data string) {
		lines := strings.Split(data, "\n")
		opts := Options{MaxRecords: 64, Seed: seed}
		s1, err1 := New(lines, nil, opts)
		s2, err2 := New(lines, nil, opts)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("sampling nondeterministic: err %v vs %v", err1, err2)
		}
		if err1 != nil {
			return // nothing parseable; the facade surfaces the error
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("same (input, seed) produced different samples:\n%+v\n%+v", s1, s2)
		}
		p1, p2 := Decide(s1, 4), Decide(s2, 4)
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("same sample produced different plans:\n%+v\n%+v", p1.Best, p2.Best)
		}
		if p1.Best != p1.Candidates[0].Choice {
			t.Fatal("Best is not the top-ranked candidate")
		}

		// The chosen knob vector must be a valid configuration.
		valid := func() core.Config {
			return core.Config{FS: dfs.New(dfs.Options{Nodes: 2}), Work: "w"}
		}
		chosen := p1.Best.Apply(valid())
		if err := chosen.Validate(); err != nil {
			t.Fatalf("planned choice %s fails Validate: %v", p1.Best, err)
		}

		// Admissibility: the planner's pick must not change the join
		// result. Bounded to small corpora to keep fuzzing fast. The
		// join (unlike the advisory planner) rejects malformed lines,
		// so only the parseable ones are fed to it.
		if len(data) > 2048 {
			return
		}
		var valid2 []string
		seen := map[uint64]bool{}
		for _, l := range lines {
			rec, err := records.ParseLine(l)
			if err != nil || seen[rec.RID] {
				continue
			}
			seen[rec.RID] = true
			valid2 = append(valid2, l)
		}
		if len(valid2) < 2 || len(valid2) > 12 {
			return
		}
		run := func(cfg core.Config) []records.RIDPair {
			fs := cfg.FS
			if err := mapreduce.WriteTextFile(fs, "in", valid2); err != nil {
				t.Fatal(err)
			}
			cfg.Parallelism = 1
			res, err := core.SelfJoin(cfg, "in")
			if err != nil {
				t.Fatalf("join with %+v failed: %v", cfg.Combo(), err)
			}
			var pairs []records.RIDPair
			if err := core.WalkJoined(fs, res.Output, func(sim float64, left, right []byte) error {
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
				t.Fatal(err)
			}
			ppjoin.SortPairs(pairs)
			return pairs
		}
		def := run(valid())
		planned := run(p1.Best.Apply(valid()))
		if len(def) != len(planned) {
			t.Fatalf("planned config changed the result: %d pairs vs %d default (choice %s)",
				len(planned), len(def), p1.Best)
		}
		for i := range def {
			d, g := def[i], planned[i]
			if d.A != g.A || d.B != g.B {
				t.Fatalf("pair %d: planned (%d,%d) vs default (%d,%d) (choice %s)",
					i, g.A, g.B, d.A, d.B, p1.Best)
			}
		}
	})
}
