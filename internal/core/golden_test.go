package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/fvt"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/stage2_golden.json from the current code")

const goldenPath = "testdata/stage2_golden.json"

// goldenCell is one Stage-2 variant's fingerprint: the SHA-256 of every
// part file the stage wrote (name and bytes, in name order) and the
// stage2.* counters of the stage's job.
type goldenCell struct {
	SHA256   string           `json:"sha256"`
	Counters map[string]int64 `json:"counters"`
}

// goldenVariant is one runnable Stage-2 configuration.
type goldenVariant struct {
	name string
	cfg  Config
}

// goldenVariants enumerates every (kernel, routing, block mode, length
// routing) cell Validate accepts.
func goldenVariants() []goldenVariant {
	var out []goldenVariant
	for _, routing := range []Routing{IndividualTokens, GroupedTokens} {
		base := Config{Routing: routing, NumReducers: 3}
		if routing == GroupedTokens {
			base.NumGroups = 7
		}
		add := func(name string, mut func(*Config)) {
			cfg := base
			mut(&cfg)
			out = append(out, goldenVariant{name: fmt.Sprintf("%s/%s", name, routing), cfg: cfg})
		}
		add("bk", func(c *Config) { c.Kernel = BK })
		add("bk-mapblocks", func(c *Config) { c.Kernel = BK; c.BlockMode = MapBlocks; c.NumBlocks = 3 })
		add("bk-reduceblocks", func(c *Config) { c.Kernel = BK; c.BlockMode = ReduceBlocks; c.NumBlocks = 3 })
		add("bk-lenroute", func(c *Config) { c.Kernel = BK; c.LengthRouting = true })
		add("pk", func(c *Config) { c.Kernel = PK })
		add("fvt", func(c *Config) { c.Kernel = FVT })
	}
	return out
}

// goldenLines is the seeded workload plus a few records whose join
// attribute is empty, so stage2.empty_projections is exercised.
func goldenLines(seed int64, n, startRID int) []string {
	lines := makeLines(seed, n, startRID)
	for i := 0; i < 4; i++ {
		lines = append(lines, records.Record{
			RID:    uint64(startRID + n + i),
			Fields: []string{"", "", "no join attribute"},
		}.Line())
	}
	return lines
}

func runGoldenCell(t *testing.T, v goldenVariant, rs bool) goldenCell {
	t.Helper()
	fs := newTestFS(t)
	cfg := v.cfg
	cfg.FS = fs
	cfg.Work = "w"
	var (
		ms  []*mapreduce.Metrics
		err error
	)
	if rs {
		writeInput(t, fs, "R", goldenLines(71, 400, 1))
		// S overlaps R's RID space and carries tokens R never saw.
		writeInput(t, fs, "S", append(goldenLines(71, 300, 201),
			records.Record{RID: 9001, Fields: []string{"zzunseen qqunseen", "xxunseen", ""}}.Line()))
		tokenFile, _, err1 := Stage1(cfg, "R")
		if err1 != nil {
			t.Fatal(err1)
		}
		_, ms, err = Stage2RS(cfg, "R", "S", tokenFile)
	} else {
		writeInput(t, fs, "in", goldenLines(71, 400, 1))
		tokenFile, _, err1 := Stage1(cfg, "in")
		if err1 != nil {
			t.Fatal(err1)
		}
		_, ms, err = Stage2Self(cfg, "in", tokenFile)
	}
	if err != nil {
		t.Fatalf("%s: %v", v.name, err)
	}
	h := sha256.New()
	parts := fs.List("w/s2")
	sort.Strings(parts)
	for _, name := range parts {
		b, err := fs.ReadAll(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", name, len(b))
		h.Write(b)
	}
	if len(parts) == 0 {
		t.Fatalf("%s: stage 2 wrote no part files", v.name)
	}
	counters := map[string]int64{}
	for _, m := range ms {
		for k, n := range m.Counters {
			if strings.HasPrefix(k, "stage2.") {
				counters[k] += n
			}
		}
	}
	return goldenCell{SHA256: hex.EncodeToString(h.Sum(nil)), Counters: counters}
}

// TestStage2Golden pins Stage 2's observable behaviour — part-file bytes
// (so key layouts, kernel call order and emission order) and every
// stage2.* counter — for each runnable variant, self and R-S, against a
// fingerprint recorded before the Stage-2 collapse. Regenerate with
// `go test ./internal/core -run TestStage2Golden -update-golden` only for
// an intended behaviour change, and say why in the commit.
func TestStage2Golden(t *testing.T) {
	got := map[string]goldenCell{}
	for _, v := range goldenVariants() {
		for _, rs := range []bool{false, true} {
			kind := "self"
			if rs {
				kind = "rs"
			}
			got[kind+"/"+v.name] = runGoldenCell(t, v, rs)
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cells run, golden file has %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: in golden file but not run", name)
			continue
		}
		if g.SHA256 != w.SHA256 {
			t.Errorf("%s: Stage-2 part files changed (sha256 %s, want %s)", name, g.SHA256, w.SHA256)
		}
		if !reflect.DeepEqual(g.Counters, w.Counters) {
			t.Errorf("%s: counters = %v, want %v", name, g.Counters, w.Counters)
		}
	}
}

// TestBitmapFilterIsNotAnOption: every kernel ends its funnel with the
// bitmap filter under a default Config, and the fields bench/ still names
// (Config.BitmapFilter, ppjoin.Options.Bitmap = fvt.Options.Bitmap) change
// neither a counter nor a byte.
func TestBitmapFilterIsNotAnOption(t *testing.T) {
	for _, k := range []KernelAlg{BK, PK, FVT} {
		v := goldenVariant{name: k.String(), cfg: Config{Kernel: k, NumReducers: 3}}
		off := runGoldenCell(t, v, false)
		if off.Counters["stage2.bitmap_rejected"] == 0 {
			t.Errorf("%s: default Config rejected no pair by bitmap: %v", k, off.Counters)
		}
		v.cfg.BitmapFilter = true
		if on := runGoldenCell(t, v, false); !reflect.DeepEqual(on, off) {
			t.Errorf("%s: Config.BitmapFilter changed Stage 2: %+v, want %+v", k, on, off)
		}
	}

	// Clusters of near-duplicates over a small universe: results inside a
	// cluster, chance prefix matches across clusters for the filter to reject.
	rng := rand.New(rand.NewSource(3))
	var items []ppjoin.Item
	for c := 0; c < 60; c++ {
		base := rng.Perm(40)
		for m := 0; m < 4; m++ {
			// 11 of the cluster's 12 ranks plus one of the other 28.
			drop, add := rng.Intn(12), 12+rng.Intn(28)
			ranks := []uint32{uint32(base[add])}
			for i, r := range base[:12] {
				if i != drop {
					ranks = append(ranks, uint32(r))
				}
			}
			slices.Sort(ranks)
			items = append(items, ppjoin.Item{RID: uint64(len(items) + 1), Ranks: ranks})
		}
	}
	type run struct {
		pairs []records.RIDPair
		tail  ppjoin.Tail
	}
	kernels := map[string]func(ppjoin.Options, func(records.RIDPair)) ppjoin.Tail{
		"BK": func(o ppjoin.Options, emit func(records.RIDPair)) ppjoin.Tail {
			return ppjoin.NestedLoopSelf(items, o, nil, emit).Tail
		},
		"PK": func(o ppjoin.Options, emit func(records.RIDPair)) ppjoin.Tail {
			return ppjoin.SelfJoin(items, o, emit).Tail
		},
		"FVT": func(o ppjoin.Options, emit func(records.RIDPair)) ppjoin.Tail {
			return fvt.SelfJoinBulk(items, o, emit).Tail
		},
	}
	for name, join := range kernels {
		kernel := func(o ppjoin.Options) (r run) {
			r.tail = join(o, func(p records.RIDPair) { r.pairs = append(r.pairs, p) })
			return r
		}
		opts := ppjoin.Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters}
		off := kernel(opts)
		if off.tail.BitmapRejected == 0 || off.tail.Results == 0 {
			t.Errorf("%s: corpus does not end the funnel both ways: %+v", name, off.tail)
		}
		opts.Bitmap = true
		if on := kernel(opts); !reflect.DeepEqual(on, off) {
			t.Errorf("%s: Options.Bitmap changed the join: %+v, want %+v", name, on.tail, off.tail)
		}
	}
}
