package core

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/trace"
)

// joinOutputBytes runs a self-join and returns the final output's part
// files as one sorted byte blob (part order is deterministic but sort
// guards against incidental reordering of the walk).
func joinOutputBytes(t *testing.T, cfg Config, fs *dfs.FS, input string) (string, *Result) {
	t.Helper()
	res, err := SelfJoin(cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	if _, err := mapreduce.Walk(fs, res.Output+"/", mapreduce.Text, func(_, l []byte) error {
		lines = append(lines, string(l))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n"), res
}

// TestTracedOutputByteIdentical: tracing must only observe — the join
// output is byte-identical with tracing on or off, plain and under an
// injected fault rate.
func TestTracedOutputByteIdentical(t *testing.T) {
	lines := makeLines(7, 60, 0)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"faulted", func(cfg *Config) {
			cfg.Retry = mapreduce.RetryPolicy{MaxAttempts: 3}
			cfg.FaultInjector = mapreduce.RateInjector{Rate: 0.2, Seed: 5}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fsOff := newTestFS(t)
			writeInput(t, fsOff, "in", lines)
			cfgOff := Config{FS: fsOff, Work: "w", NumReducers: 3}
			tc.mut(&cfgOff)
			plain, resOff := joinOutputBytes(t, cfgOff, fsOff, "in")
			if resOff.Trace != nil {
				t.Fatal("untraced run returned a trace")
			}

			fsOn := newTestFS(t)
			writeInput(t, fsOn, "in", lines)
			cfgOn := Config{FS: fsOn, Work: "w", NumReducers: 3, Trace: trace.New()}
			tc.mut(&cfgOn)
			traced, resOn := joinOutputBytes(t, cfgOn, fsOn, "in")

			if plain != traced {
				t.Fatal("join output differs with tracing enabled")
			}
			if plain == "" {
				t.Fatal("join produced no output; test is vacuous")
			}
			tr := resOn.Trace
			if tr == nil || tr.Schema != trace.SchemaVersion {
				t.Fatalf("traced run returned %+v", tr)
			}
			if tr.Count(trace.FlowStart) != 1 || tr.Count(trace.FlowEnd) != 1 {
				t.Fatal("flow markers missing")
			}
			if got := tr.Count(trace.StageStart); got != 3 {
				t.Fatalf("stage-start count = %d, want 3", got)
			}
			if tr.Count(trace.JobStart) == 0 || tr.Count(trace.JobStart) != tr.Count(trace.JobEnd) {
				t.Fatalf("job markers unbalanced: %d starts, %d ends",
					tr.Count(trace.JobStart), tr.Count(trace.JobEnd))
			}
			if tr.Count(trace.AttemptEnd) == 0 {
				t.Fatal("no attempt-end events")
			}
			if tc.name == "faulted" && tr.Count(trace.AttemptFail) == 0 {
				t.Fatal("fault run recorded no attempt-fail events")
			}
		})
	}
}

// TestValidateTyped: Validate returns *ConfigError naming the offending
// field, and the pipeline entry points surface it.
func TestValidateTyped(t *testing.T) {
	fs := newTestFS(t)
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"no fs", Config{Work: "w"}, "FS"},
		{"no work", Config{FS: fs}, "Work"},
		{"tau high", Config{FS: fs, Work: "w", Threshold: 1.5}, "Threshold"},
		{"tau negative", Config{FS: fs, Work: "w", Threshold: -0.1}, "Threshold"},
		{"blocks with pk", Config{FS: fs, Work: "w", Kernel: PK, BlockMode: MapBlocks, NumBlocks: 2}, "BlockMode"},
		{"one block", Config{FS: fs, Work: "w", BlockMode: ReduceBlocks, NumBlocks: 1}, "NumBlocks"},
		{"blocks and length routing", Config{FS: fs, Work: "w", BlockMode: MapBlocks, NumBlocks: 2, LengthRouting: true}, "LengthRouting"},
		{"length routing with pk", Config{FS: fs, Work: "w", Kernel: PK, LengthRouting: true}, "LengthRouting"},
		{"bad token order", Config{FS: fs, Work: "w", TokenOrder: TokenOrderAlg(9)}, "TokenOrder"},
		{"bad kernel", Config{FS: fs, Work: "w", Kernel: KernelAlg(9)}, "Kernel"},
		{"bad record join", Config{FS: fs, Work: "w", RecordJoin: RecordJoinAlg(9)}, "RecordJoin"},
		{"bad routing", Config{FS: fs, Work: "w", Routing: Routing(9)}, "Routing"},
		{"negative groups", Config{FS: fs, Work: "w", NumGroups: -1}, "NumGroups"},
		{"bad block mode", Config{FS: fs, Work: "w", BlockMode: BlockMode(9)}, "BlockMode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("Validate() = %v, want *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("Field = %q, want %q", ce.Field, tc.field)
			}
			if !strings.HasPrefix(ce.Error(), "core: ") {
				t.Fatalf("Error() = %q, want core: prefix", ce.Error())
			}
			// The entry points must fail with the same typed error before
			// touching the DFS.
			if _, jerr := SelfJoin(tc.cfg, "in"); !errors.As(jerr, &ce) {
				t.Fatalf("SelfJoin error %v is not a *ConfigError", jerr)
			}
			if _, jerr := RSJoin(tc.cfg, "a", "b"); !errors.As(jerr, &ce) {
				t.Fatalf("RSJoin error %v is not a *ConfigError", jerr)
			}
		})
	}
	if err := (&Config{FS: fs, Work: "w"}).Validate(); err != nil {
		t.Fatalf("valid zero-default config rejected: %v", err)
	}
	// Validate must not mutate: defaults stay unfilled.
	cfg := Config{FS: fs, Work: "w"}
	_ = cfg.Validate()
	if cfg.Threshold != 0 || cfg.NumReducers != 0 || cfg.Tokenizer != nil {
		t.Fatal("Validate mutated the config")
	}
}

// TestMetricsExportEnvelope: the export wraps the result under the
// current schema version.
func TestMetricsExportEnvelope(t *testing.T) {
	res := &Result{Pairs: 7}
	exp := res.Export("BTO-PK-BRJ")
	if exp.Schema != trace.SchemaVersion || exp.Combo != "BTO-PK-BRJ" || exp.Result != res {
		t.Fatalf("export = %+v", exp)
	}
}
