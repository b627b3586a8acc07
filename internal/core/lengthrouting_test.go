package core

import (
	"fmt"
	"testing"

	"fuzzyjoin/internal/records"
)

// TestLengthRoutingEquivalence: BK with the §5 secondary length-routing
// criterion computes exactly the standard join.
func TestLengthRoutingEquivalence(t *testing.T) {
	lines := makeLines(21, 45, 1)
	want := oracleSelf(t, lines, 0.8)
	fs := newTestFS(t)
	writeInput(t, fs, "in", lines)
	cfg := Config{FS: fs, Work: "w", Kernel: BK, LengthRouting: true, NumReducers: 3}
	res, err := SelfJoin(cfg, "in")
	if err != nil {
		t.Fatal(err)
	}
	assertPairsEqual(t, readJoined(t, fs, res.Output), want, "length-routing")
}

// TestLengthRoutingReducesMemory asserts the §5 claim directly: with the
// length filter as a secondary routing criterion, the Stage 2 reducers'
// peak buffered memory drops, because each (token, bucket) group buffers
// one length bucket instead of the whole token group.
func TestLengthRoutingReducesMemory(t *testing.T) {
	// Clusters of records sharing one cluster token with a wide
	// in-cluster length spread; authors unique so no pair joins and the
	// whole buffered cost is the token groups. The cluster tokens
	// (frequency 40) rank between the unique authors (frequency 1) and
	// the very common filler, so each lands in all its members' prefixes
	// and forms one 40-record group mixing 9 lengths.
	// The filler pool rotates so every filler token is roughly equally
	// (and highly) frequent and never lands in a prefix.
	var lines []string
	rid := uint64(1)
	for c := 0; c < 8; c++ {
		for i := 0; i < 40; i++ {
			title := fmt.Sprintf("zzcluster%d", c)
			for k := 0; k < 4+i%9; k++ {
				title += fmt.Sprintf(" common%d", (i+k)%12)
			}
			lines = append(lines, records.Record{
				RID:    rid,
				Fields: []string{title, fmt.Sprintf("author%d", rid), ""},
			}.Line())
			rid++
		}
	}
	peak := func(lengthRouting bool) int64 {
		fs := newTestFS(t)
		writeInput(t, fs, "in", lines)
		cfg := Config{
			FS: fs, Work: "w", Kernel: BK,
			LengthRouting: lengthRouting,
			NumReducers:   1,
		}
		if err := cfg.fillDefaults(); err != nil {
			t.Fatal(err)
		}
		tokenFile, _, err := runStage1(&cfg, "in", "w0")
		if err != nil {
			t.Fatal(err)
		}
		_, ms, err := runStage2(&cfg, tokenFile, "w", "in")
		if err != nil {
			t.Fatal(err)
		}
		var max int64
		for _, rt := range ms[0].ReduceTasks {
			if rt.PeakMemory > max {
				max = rt.PeakMemory
			}
		}
		return max
	}
	plain, routed := peak(false), peak(true)
	if plain == 0 || routed == 0 {
		t.Fatalf("peaks not recorded: plain=%d routed=%d", plain, routed)
	}
	if routed >= plain {
		t.Fatalf("length routing did not reduce reducer memory: plain=%d routed=%d", plain, routed)
	}
	// With a spread of 9 lengths over width-2 buckets the reduction
	// should be substantial, not marginal.
	if float64(routed) > 0.6*float64(plain) {
		t.Fatalf("reduction too small: plain=%d routed=%d", plain, routed)
	}
}

func TestLengthRoutingValidation(t *testing.T) {
	fs := newTestFS(t)
	writeInput(t, fs, "in", makeLines(22, 6, 1))
	// PK + length routing is rejected.
	cfg := Config{FS: fs, Work: "w1", Kernel: PK, LengthRouting: true}
	if _, err := SelfJoin(cfg, "in"); err == nil {
		t.Fatal("LengthRouting with PK accepted")
	}
	// Length routing and block processing are alternatives.
	cfg = Config{FS: fs, Work: "w2", Kernel: BK, LengthRouting: true,
		BlockMode: MapBlocks, NumBlocks: 4}
	if _, err := SelfJoin(cfg, "in"); err == nil {
		t.Fatal("LengthRouting together with BlockMode accepted")
	}
}

// TestLengthRoutingReplication: the technique replicates each projection
// once per admissible length bucket — more than plain BK, bounded by the
// length-filter window.
func TestLengthRoutingReplication(t *testing.T) {
	lines := makeLines(23, 40, 1)
	replicas := func(lengthRouting bool) int64 {
		fs := newTestFS(t)
		writeInput(t, fs, "in", lines)
		cfg := Config{FS: fs, Work: "w", Kernel: BK,
			LengthRouting: lengthRouting, NumReducers: 2}
		res, err := SelfJoin(cfg, "in")
		if err != nil {
			t.Fatal(err)
		}
		return res.Stages[1].Jobs[0].Counters["stage2.replicas"]
	}
	plain, routed := replicas(false), replicas(true)
	if routed <= plain {
		t.Fatalf("length routing should replicate more: plain=%d routed=%d", plain, routed)
	}
	// The window is ~20% of the record length at τ=0.8: replication must
	// stay within a small factor.
	if routed > 5*plain {
		t.Fatalf("length routing replicates too much: plain=%d routed=%d", plain, routed)
	}
}

// TestLengthRoutingRSEquivalence: the R-S variant computes exactly the
// standard R-S join.
func TestLengthRoutingRSEquivalence(t *testing.T) {
	rLines := makeLines(41, 30, 1)
	sLines := makeLines(41, 24, 101)
	want := oracleRS(t, rLines, sLines, 0.8)
	if len(want) == 0 {
		t.Fatal("degenerate corpus")
	}
	fs := newTestFS(t)
	writeInput(t, fs, "R", rLines)
	writeInput(t, fs, "S", sLines)
	cfg := Config{FS: fs, Work: "w", Kernel: BK, LengthRouting: true, NumReducers: 3}
	res, err := RSJoin(cfg, "R", "S")
	if err != nil {
		t.Fatal(err)
	}
	assertPairsEqual(t, readJoined(t, fs, res.Output), want, "rs-length-routing")
}
