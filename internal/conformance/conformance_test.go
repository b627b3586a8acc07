package conformance

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"fuzzyjoin/internal/core"
	"fuzzyjoin/internal/distrib"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/tokenize"
)

// TestMain lets the dist-backend sweeps fork this test binary as worker
// processes: MaybeWorker turns the fork into a worker before any test
// runs.
func TestMain(m *testing.M) {
	distrib.MaybeWorker()
	os.Exit(m.Run())
}

// ---- oracle --------------------------------------------------------

// naiveJaccard is a from-scratch set-of-strings Jaccard, sharing no
// code with simfn/ppjoin: the oracle's oracle.
func naiveJaccard(a, b map[string]bool) float64 {
	inter := 0
	for t := range a {
		if b[t] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func tokenSets(recs []records.Record) []map[string]bool {
	w := tokenize.Word{}
	out := make([]map[string]bool, len(recs))
	for i, r := range recs {
		set := map[string]bool{}
		for _, t := range w.Tokenize(r.JoinAttr(records.FieldTitle, records.FieldAuthors)) {
			set[t] = true
		}
		out[i] = set
	}
	return out
}

func TestOracleSelfMatchesNaiveComputation(t *testing.T) {
	w := Workload{Records: 60, Seed: 11}
	recs := w.SelfRecords()
	sets := tokenSets(recs)
	want := map[string]float64{}
	for i := range recs {
		for j := i + 1; j < len(recs); j++ {
			if sim := naiveJaccard(sets[i], sets[j]); sim >= 0.8-1e-9 {
				want[fmt.Sprintf("%d-%d", recs[i].RID, recs[j].RID)] = sim
			}
		}
	}
	got := OracleSelf(recs, Params{})
	if len(got) != len(want) {
		t.Fatalf("oracle has %d pairs, naive has %d", len(got), len(want))
	}
	for _, p := range got {
		sim, ok := want[fmt.Sprintf("%d-%d", p.A, p.B)]
		if !ok {
			t.Fatalf("oracle pair (%d,%d) absent from naive result", p.A, p.B)
		}
		if d := p.Sim - sim; d > 1e-9 || d < -1e-9 {
			t.Fatalf("pair (%d,%d): oracle sim %v, naive %v", p.A, p.B, p.Sim, sim)
		}
	}
	if len(got) == 0 {
		t.Fatal("test premise broken: oracle result empty")
	}
}

func TestOracleRSMatchesNaiveComputation(t *testing.T) {
	w := Workload{Records: 40, Seed: 12}
	r, s := w.RSRecords()
	rSets, sSets := tokenSets(r), tokenSets(s)
	dict := map[string]bool{}
	for _, set := range rSets {
		for t := range set {
			dict[t] = true
		}
	}
	want := map[string]float64{}
	for i := range r {
		for j := range s {
			kept := map[string]bool{}
			for t := range sSets[j] {
				if dict[t] {
					kept[t] = true
				}
			}
			if len(kept) == 0 {
				continue
			}
			if sim := naiveJaccard(rSets[i], kept); sim >= 0.8-1e-9 {
				want[fmt.Sprintf("%d-%d", r[i].RID, s[j].RID)] = sim
			}
		}
	}
	got := OracleRS(r, s, Params{})
	if len(got) != len(want) {
		t.Fatalf("oracle has %d pairs, naive has %d", len(got), len(want))
	}
	for _, p := range got {
		if _, ok := want[fmt.Sprintf("%d-%d", p.A, p.B)]; !ok {
			t.Fatalf("oracle pair (%d,%d) absent from naive result", p.A, p.B)
		}
	}
	if len(got) == 0 {
		t.Fatal("test premise broken: R-S oracle result empty")
	}
}

// ---- matrix --------------------------------------------------------

func TestMatrixEnumeration(t *testing.T) {
	all, err := Matrix(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	// Per join kind and (TO, RJ) combo: BK has 4 block-axis values
	// (none, map, reduce, lenroute), PK and FVT one each; times 4 (TO, RJ)
	// combos × 2 routings × 4 exec modes × 2 join kinds = 384.
	if want := 2 * 4 * (4 + 1 + 1) * 2 * 4; len(all) != want || want != 384 {
		t.Fatalf("full matrix has %d variants, want %d", len(all), want)
	}
	seen := map[string]bool{}
	for _, v := range all {
		if seen[v.Name()] {
			t.Fatalf("duplicate variant %s", v.Name())
		}
		seen[v.Name()] = true
	}
	sub, err := Matrix(Filter{Joins: "self", Combos: "BTO-PK-BRJ", Execs: "plain"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 { // two routings
		t.Fatalf("filtered matrix has %d variants, want 2", len(sub))
	}
	lenroute, err := Matrix(Filter{Blocks: "lenroute", Execs: "plain"})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range lenroute {
		if v.Kernel != core.BK || !strings.Contains(v.Name(), "blocks=lenroute") {
			t.Fatalf("lenroute filter produced %s", v.Name())
		}
	}
	if len(lenroute) != 2*4*2 { // join kinds × (TO, RJ) combos × routings
		t.Fatalf("lenroute-filtered matrix has %d variants, want 16", len(lenroute))
	}
	if _, err := Matrix(Filter{Blocks: "mpa"}); err == nil {
		t.Fatal("typo'd filter value accepted")
	}
	if _, err := Matrix(Filter{Combos: "BTO-XX-BRJ"}); err == nil {
		t.Fatal("unknown combo accepted")
	}
}

func TestVariantFlagsNameReproducer(t *testing.T) {
	v := Variant{RS: true, Kernel: 0, Block: 1, Exec: ExecFaults} // BTO-BK-BRJ map-blocks
	w := Workload{Records: 30, Seed: 9, Skew: 1.5}
	got := v.Flags(w, Params{Threshold: 0.7})
	for _, frag := range []string{"-seed 9", "-records 30", "-tau 0.7", "-join rs",
		"-combo BTO-BK-BRJ", "-blocks map", "-exec faults", "-skew 1.5"} {
		if !strings.Contains(got, frag) {
			t.Fatalf("reproducer %q missing %q", got, frag)
		}
	}
	if strings.Contains(got, "-split") {
		t.Fatalf("reproducer %q names a flag ssjcheck does not define", got)
	}
}

// ---- diffing and minimization --------------------------------------

func TestDiff(t *testing.T) {
	base := []records.RIDPair{{A: 1, B: 2, Sim: 0.9}, {A: 3, B: 4, Sim: 0.85}}
	if d := Diff(base, base); d != "" {
		t.Fatalf("equal sets diff: %s", d)
	}
	if d := Diff(base[:1], base); !strings.Contains(d, "missing pair (3,4)") {
		t.Fatalf("diff = %q", d)
	}
	if d := Diff(base, base[:1]); !strings.Contains(d, "extra pair (3,4)") {
		t.Fatalf("diff = %q", d)
	}
	skew := []records.RIDPair{{A: 1, B: 2, Sim: 0.9}, {A: 3, B: 4, Sim: 0.86}}
	if d := Diff(skew, base); !strings.Contains(d, "sim") {
		t.Fatalf("diff = %q", d)
	}
	// Within tolerance: the 6-decimal text rendering must not diverge.
	near := []records.RIDPair{{A: 1, B: 2, Sim: 0.9000004}, {A: 3, B: 4, Sim: 0.85}}
	if d := Diff(near, base); d != "" {
		t.Fatalf("tolerance diff: %s", d)
	}
}

func TestShrinkWorkload(t *testing.T) {
	w := Workload{Records: 200, Seed: 1}
	got := shrinkWorkload(w, func(cand Workload) bool { return cand.Records >= 13 })
	if got.Records != 13 {
		t.Fatalf("minimized to %d records, want 13", got.Records)
	}
	if got.Seed != w.Seed {
		t.Fatal("minimization changed the seed")
	}
	// A predicate that fails only at the original size cannot shrink.
	got = shrinkWorkload(w, func(cand Workload) bool { return cand.Records == 200 })
	if got.Records != 200 {
		t.Fatalf("unshrinkable workload shrank to %d", got.Records)
	}
}

// ---- sweeps --------------------------------------------------------

// TestSweepPlainMatrix certifies the full stage matrix (both joins,
// both routings, all block modes) in plain execution against the
// oracle. The exec dimensions ride in TestSweepExecModes; `make
// conformance` sweeps everything at once.
func TestSweepPlainMatrix(t *testing.T) {
	variants, err := Matrix(Filter{Execs: "plain"})
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Records: 36, Seed: 5}
	rep := Sweep(w, Params{}, variants, SweepOptions{Logf: t.Logf})
	if rep.OraclePairsSelf <= 0 || rep.OraclePairsRS <= 0 {
		t.Fatalf("trivial oracle: self=%d rs=%d", rep.OraclePairsSelf, rep.OraclePairsRS)
	}
	for _, d := range rep.Divergences {
		t.Errorf("%s", d)
	}
	if rep.Variants != len(variants) {
		t.Fatalf("report covered %d variants, want %d", rep.Variants, len(variants))
	}
}

// TestSweepExecModes certifies the fault-injected and parallel
// execution dimensions over a representative stage subset.
func TestSweepExecModes(t *testing.T) {
	variants, err := Matrix(Filter{
		Combos: "BTO-BK-BRJ,OPTO-PK-OPRJ,BTO-FVT-OPRJ",
		Execs:  "faults,parallel",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) == 0 {
		t.Fatal("empty variant subset")
	}
	w := Workload{Records: 30, Seed: 6}
	rep := Sweep(w, Params{}, variants, SweepOptions{Logf: t.Logf})
	for _, d := range rep.Divergences {
		t.Errorf("%s", d)
	}
}

// TestSweepDistBackend certifies the distributed RPC-worker backend on
// a representative stage subset: every variant runs its task attempts
// on two real worker processes and must match the oracle exactly. A
// second pass arms the seeded SIGKILL chaos harness.
func TestSweepDistBackend(t *testing.T) {
	variants, err := Matrix(Filter{
		Combos: "BTO-BK-BRJ,OPTO-PK-OPRJ,OPTO-FVT-BRJ",
		Execs:  "dist",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) == 0 {
		t.Fatal("empty variant subset")
	}
	w := Workload{Records: 30, Seed: 6}

	s, err := distrib.Start(distrib.Options{
		Workers: 2, Heartbeat: 50 * time.Millisecond, Stderr: io.Discard,
	})
	if err != nil {
		t.Fatalf("starting worker session: %v", err)
	}
	defer s.Close()
	rep := Sweep(w, Params{Runner: s.Runner}, variants, SweepOptions{Logf: t.Logf})
	for _, d := range rep.Divergences {
		t.Errorf("%s", d)
	}

	// Chaos pass: a fresh fleet with the kill harness armed. The subset
	// is small (kills are capped below fleet size) but every cell must
	// still match the oracle bit for bit.
	chaos, err := Matrix(Filter{Combos: "BTO-PK-BRJ", Routings: "individual", Execs: "dist"})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := distrib.Start(distrib.Options{
		Workers: 3, Heartbeat: 50 * time.Millisecond, Stderr: io.Discard,
		Kill: &distrib.KillSpec{Rate: 0.4, Seed: 11, MaxKills: 2},
	})
	if err != nil {
		t.Fatalf("starting chaos session: %v", err)
	}
	defer cs.Close()
	rep = Sweep(w, Params{Runner: cs.Runner}, chaos, SweepOptions{Logf: t.Logf, NoMinimize: true})
	for _, d := range rep.Divergences {
		t.Errorf("chaos: %s", d)
	}
	t.Logf("chaos kills fired: %d", cs.Runner.Kills())
}

// TestDistWithoutRunnerFailsLoudly guards against a dist sweep silently
// running in-process when no worker session was provided.
func TestDistWithoutRunnerFailsLoudly(t *testing.T) {
	v := Variant{Exec: ExecDist}
	if _, err := v.Run(Workload{Records: 4, Seed: 1}, Params{}); err == nil {
		t.Fatal("ExecDist with nil Runner ran anyway")
	}
}

// TestSweepOtherThresholds runs a spot check away from the default τ.
func TestSweepOtherThresholds(t *testing.T) {
	variants, err := Matrix(Filter{Combos: "BTO-BK-BRJ,BTO-PK-BRJ,BTO-FVT-BRJ", Execs: "plain", Blocks: "none,reduce"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range []float64{0.6, 0.9} {
		rep := Sweep(Workload{Records: 30, Seed: 7}, Params{Threshold: tau}, variants, SweepOptions{})
		for _, d := range rep.Divergences {
			t.Errorf("τ=%g: %s", tau, d)
		}
	}
}

// ---- invariants ----------------------------------------------------

func TestInvariantsHold(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		failures := CheckInvariants(Workload{Records: 32, Seed: seed}, Params{}, t.Logf)
		for _, f := range failures {
			t.Errorf("seed %d: %s", seed, f)
		}
	}
}

func TestDiffSubset(t *testing.T) {
	super := []records.RIDPair{{A: 1, B: 2, Sim: 0.9}, {A: 3, B: 4, Sim: 0.85}, {A: 5, B: 6, Sim: 0.8}}
	if d := diffSubset(super[1:2], super); d != "" {
		t.Fatalf("subset reported: %s", d)
	}
	if d := diffSubset([]records.RIDPair{{A: 9, B: 9, Sim: 0.8}}, super); d == "" {
		t.Fatal("non-subset accepted")
	}
	if d := diffSubset([]records.RIDPair{{A: 3, B: 4, Sim: 0.95}}, super); d == "" {
		t.Fatal("sim drift accepted")
	}
}
