package simfn

import (
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// refAccept decides sim(o, lx, ly) ≥ num/den with big.Int arithmetic —
// an oracle for the package's fixed-width integer arithmetic that cannot
// overflow and shares no code with it. The comparisons are the cleared
// forms of the three similarity definitions.
func refAccept(f Func, o, lx, ly int, num, den uint64) bool {
	bo := big.NewInt(int64(o))
	bnum := new(big.Int).SetUint64(num)
	bden := new(big.Int).SetUint64(den)
	var lhs, rhs big.Int
	switch f {
	case Jaccard:
		// o/(lx+ly−o) ≥ num/den ⇔ o·(num+den) ≥ num·(lx+ly)
		lhs.Mul(bo, lhs.Add(bnum, bden))
		rhs.Mul(bnum, big.NewInt(int64(lx+ly)))
	case Cosine:
		// o/√(lx·ly) ≥ num/den ⇔ o²·den² ≥ num²·lx·ly
		lhs.Mul(bo, bo)
		lhs.Mul(&lhs, bden)
		lhs.Mul(&lhs, bden)
		rhs.Mul(bnum, bnum)
		rhs.Mul(&rhs, big.NewInt(int64(lx)))
		rhs.Mul(&rhs, big.NewInt(int64(ly)))
	case Dice:
		// 2o/(lx+ly) ≥ num/den ⇔ 2o·den ≥ num·(lx+ly)
		lhs.Mul(bo, bden)
		lhs.Mul(&lhs, big.NewInt(2))
		rhs.Mul(bnum, big.NewInt(int64(lx+ly)))
	default:
		panic("unknown function")
	}
	return lhs.Cmp(&rhs) >= 0
}

// seq returns the sorted rank set {start, …, start+n−1}.
func seq(start, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(start + i)
	}
	return out
}

// sortedSet builds a sorted duplicate-free rank slice from arbitrary input.
func sortedSet(in []uint32) []uint32 {
	seen := make(map[uint32]bool, len(in))
	out := make([]uint32, 0, len(in))
	for _, v := range in {
		v %= 64 // keep the universe small so overlaps actually occur
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestOverlapBasic(t *testing.T) {
	x := []uint32{1, 3, 5, 7}
	y := []uint32{3, 4, 5, 6, 7}
	if got := Overlap(x, y); got != 3 {
		t.Fatalf("Overlap = %d, want 3", got)
	}
	if got := Overlap(nil, y); got != 0 {
		t.Fatalf("Overlap(nil, y) = %d", got)
	}
}

func TestJaccardPaperExample(t *testing.T) {
	// §2: jaccard("I will call back", "I will call you soon") = 3/6 = 0.5.
	x := []uint32{0, 1, 2, 3}    // i will call back
	y := []uint32{0, 1, 2, 4, 5} // i will call you soon
	if got := Jaccard.Sim(x, y); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Jaccard = %v, want 0.5", got)
	}
}

func TestSimEmptySets(t *testing.T) {
	for _, f := range []Func{Jaccard, Cosine, Dice} {
		if got := f.Sim(nil, nil); got != 0 {
			t.Fatalf("%v.Sim(∅,∅) = %v, want 0", f, got)
		}
		if got := f.Sim([]uint32{1}, nil); got != 0 {
			t.Fatalf("%v.Sim(x,∅) = %v, want 0", f, got)
		}
	}
}

func TestSimIdentityProperty(t *testing.T) {
	for _, f := range []Func{Jaccard, Cosine, Dice} {
		fn := func(in []uint32) bool {
			x := sortedSet(in)
			if len(x) == 0 {
				return true
			}
			return math.Abs(f.Sim(x, x)-1.0) < 1e-12
		}
		if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
	}
}

func TestSimSymmetryAndRangeProperty(t *testing.T) {
	for _, f := range []Func{Jaccard, Cosine, Dice} {
		fn := func(a, b []uint32) bool {
			x, y := sortedSet(a), sortedSet(b)
			s1, s2 := f.Sim(x, y), f.Sim(y, x)
			return s1 == s2 && s1 >= 0 && s1 <= 1+1e-12
		}
		if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
	}
}

func TestPrefixLengthJaccard(t *testing.T) {
	// Known values for τ=0.8: l=5 → 5-4+1=2; l=10 → 10-8+1=3; l=4 → 4-4+1=1.
	cases := []struct{ l, want int }{
		{1, 1}, {4, 1}, {5, 2}, {10, 3}, {100, 21},
	}
	for _, c := range cases {
		if got := Jaccard.PrefixLength(c.l, 0.8); got != c.want {
			t.Errorf("PrefixLength(%d, 0.8) = %d, want %d", c.l, got, c.want)
		}
	}
	if got := Jaccard.PrefixLength(0, 0.8); got != 0 {
		t.Errorf("PrefixLength(0) = %d", got)
	}
}

func TestLengthBoundsJaccard(t *testing.T) {
	lo, hi := Jaccard.LengthBounds(10, 0.8)
	if lo != 8 || hi != 12 {
		t.Fatalf("LengthBounds(10, 0.8) = [%d, %d], want [8, 12]", lo, hi)
	}
	lo, hi = Jaccard.LengthBounds(5, 0.8)
	if lo != 4 || hi != 6 {
		t.Fatalf("LengthBounds(5, 0.8) = [%d, %d], want [4, 6]", lo, hi)
	}
	lo, hi = Jaccard.LengthBounds(0, 0.8)
	if lo != 0 || hi != 0 {
		t.Fatalf("LengthBounds(0) = [%d, %d]", lo, hi)
	}
}

// TestLengthBoundsAdmissible: no pair with sim ≥ τ may fall outside the
// length bounds — for every function.
func TestLengthBoundsAdmissible(t *testing.T) {
	for _, f := range []Func{Jaccard, Cosine, Dice} {
		for _, tau := range []float64{0.5, 0.8, 0.9} {
			fn := func(a, b []uint32) bool {
				x, y := sortedSet(a), sortedSet(b)
				if len(x) == 0 || len(y) == 0 {
					return true
				}
				if f.Sim(x, y) < tau {
					return true
				}
				lo, hi := f.LengthBounds(len(x), tau)
				return len(y) >= lo && len(y) <= hi
			}
			if err := quick.Check(fn, &quick.Config{MaxCount: 400}); err != nil {
				t.Fatalf("%v τ=%v: %v", f, tau, err)
			}
		}
	}
}

// TestOverlapThresholdExact: sim(x,y) ≥ τ ⇒ overlap ≥ threshold, and
// sim < τ ⇒ overlap < threshold (the threshold is exact, not just a bound).
// Acceptance is decided by the big.Int reference, not floats.
func TestOverlapThresholdExact(t *testing.T) {
	for _, f := range []Func{Jaccard, Cosine, Dice} {
		for _, tau := range []float64{0.5, 0.8} {
			num, den := Rationalize(tau)
			fn := func(a, b []uint32) bool {
				x, y := sortedSet(a), sortedSet(b)
				if len(x) == 0 || len(y) == 0 {
					return true
				}
				o := Overlap(x, y)
				need := f.OverlapThreshold(len(x), len(y), tau)
				if refAccept(f, o, len(x), len(y), num, den) {
					return o >= need
				}
				return o < need
			}
			if err := quick.Check(fn, &quick.Config{MaxCount: 400}); err != nil {
				t.Fatalf("%v τ=%v: %v", f, tau, err)
			}
		}
	}
}

// TestOverlapThresholdAdversarial sweeps every small (lx, ly) cell at τ
// values whose τ·l products land on or near integers — exactly the
// inputs the old epsilon guard papered over — and checks that the
// returned threshold is the *minimal* overlap the big.Int reference
// accepts.
func TestOverlapThresholdAdversarial(t *testing.T) {
	taus := []float64{0.5, 0.6, 2.0 / 3.0, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0}
	for _, f := range []Func{Jaccard, Cosine, Dice} {
		for _, tau := range taus {
			num, den := Rationalize(tau)
			for lx := 1; lx <= 48; lx++ {
				for ly := 1; ly <= 48; ly++ {
					need := f.OverlapThreshold(lx, ly, tau)
					if !refAccept(f, need, lx, ly, num, den) {
						t.Fatalf("%v τ=%v lx=%d ly=%d: threshold %d does not reach τ", f, tau, lx, ly, need)
					}
					if need > 0 && refAccept(f, need-1, lx, ly, num, den) {
						t.Fatalf("%v τ=%v lx=%d ly=%d: threshold %d not minimal", f, tau, lx, ly, need)
					}
				}
			}
		}
	}
}

// TestOverlapThresholdMonotoneInLx pins the premise of PK's index pruning
// (internal/ppjoin): an entry whose positional bound fails against a probe
// of length lx fails it against every longer probe, because the overlap a
// pair needs does not decrease as one side grows.
func TestOverlapThresholdMonotoneInLx(t *testing.T) {
	taus := []float64{0.1, 0.3, 0.5, 0.6, 2.0 / 3.0, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0}
	for _, f := range []Func{Jaccard, Cosine, Dice} {
		for _, tau := range taus {
			th := f.At(tau)
			for ly := 1; ly <= 200; ly++ {
				prev := th.OverlapThreshold(1, ly)
				for lx := 2; lx <= 400; lx++ {
					need := th.OverlapThreshold(lx, ly)
					if need < prev {
						t.Fatalf("%v τ=%v ly=%d: OverlapThreshold falls from %d at lx=%d to %d at lx=%d",
							f, tau, ly, prev, lx-1, need, lx)
					}
					prev = need
				}
			}
		}
	}
}

// TestLengthBoundsAdversarialExact checks, for the same near-integer τ·l
// grid, that the length bounds are exact: a partner size is inside
// [lo, hi] iff the best achievable overlap min(l, m) reaches τ by the
// big.Int reference.
func TestLengthBoundsAdversarialExact(t *testing.T) {
	taus := []float64{0.5, 0.6, 2.0 / 3.0, 0.7, 0.75, 0.8, 0.9, 1.0}
	for _, f := range []Func{Jaccard, Cosine, Dice} {
		for _, tau := range taus {
			num, den := Rationalize(tau)
			for l := 1; l <= 40; l++ {
				lo, hi := f.LengthBounds(l, tau)
				for m := 1; m <= 5*l+8; m++ {
					best := l
					if m < l {
						best = m
					}
					adm := refAccept(f, best, l, m, num, den)
					in := m >= lo && m <= hi
					if adm != in {
						t.Fatalf("%v τ=%v l=%d m=%d: admissible=%v but bounds [%d,%d]", f, tau, l, m, adm, lo, hi)
					}
				}
			}
		}
	}
}

// TestPrefixLengthAdversarial checks the prefix length dominates the
// per-pair bound l − OverlapThreshold(l, m) + 1 for every admissible
// partner size m — the inequality that makes prefix filtering complete,
// at τ values where the old float ceilings were fragile.
func TestPrefixLengthAdversarial(t *testing.T) {
	taus := []float64{0.5, 0.6, 2.0 / 3.0, 0.7, 0.75, 0.8, 0.9, 1.0}
	for _, f := range []Func{Jaccard, Cosine, Dice} {
		for _, tau := range taus {
			for l := 1; l <= 40; l++ {
				p := f.PrefixLength(l, tau)
				lo, hi := f.LengthBounds(l, tau)
				for m := lo; m <= hi && m <= 5*l+8; m++ {
					if m < 1 {
						continue
					}
					need := f.OverlapThreshold(l, m, tau)
					min := l
					if m < min {
						min = m
					}
					if need > min {
						continue // pair infeasible regardless of prefix
					}
					if want := l - need + 1; want > p {
						t.Fatalf("%v τ=%v l=%d m=%d: prefix %d shorter than pair bound %d", f, tau, l, m, p, want)
					}
				}
			}
		}
	}
}

// TestPrefixFilterCompleteness is the core prefix-filtering principle: if
// sim(x, y) ≥ τ then the two prefixes share at least one token.
func TestPrefixFilterCompleteness(t *testing.T) {
	for _, f := range []Func{Jaccard, Cosine, Dice} {
		for _, tau := range []float64{0.5, 0.8, 0.9} {
			fn := func(a, b []uint32) bool {
				x, y := sortedSet(a), sortedSet(b)
				if len(x) == 0 || len(y) == 0 {
					return true
				}
				if f.Sim(x, y) < tau {
					return true
				}
				px := x[:f.PrefixLength(len(x), tau)]
				py := y[:f.PrefixLength(len(y), tau)]
				return Overlap(px, py) > 0
			}
			if err := quick.Check(fn, &quick.Config{MaxCount: 600}); err != nil {
				t.Fatalf("%v τ=%v: %v", f, tau, err)
			}
		}
	}
}

func TestVerifyAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		x := randomSet(rng, 12)
		y := randomSet(rng, 12)
		for _, f := range []Func{Jaccard, Cosine, Dice} {
			tau := 0.5 + rng.Float64()*0.45
			sim, ok := f.Verify(x, y, tau)
			num, den := Rationalize(tau)
			wantOK := len(x) > 0 && len(y) > 0 &&
				refAccept(f, Overlap(x, y), len(x), len(y), num, den)
			if ok != wantOK {
				t.Fatalf("%v τ=%v x=%v y=%v: Verify ok=%v, reference=%v", f, tau, x, y, ok, wantOK)
			}
			if ok && math.Abs(sim-f.Sim(x, y)) > 1e-12 {
				t.Fatalf("%v: Verify sim=%v, naive=%v", f, sim, f.Sim(x, y))
			}
		}
	}
}

// TestVerifyBoundaryPairs is the regression suite for the τ-boundary
// bug: Verify once accepted pairs with sim ∈ [τ−1e-9, τ) because the
// final comparison was sim+eps ≥ τ in floats. Each case here sits
// exactly on, one step below, or one step above the τ=0.8 boundary, with
// hand-constructed sets whose similarity is an exact small rational.
func TestVerifyBoundaryPairs(t *testing.T) {
	const tau = 0.8
	cases := []struct {
		name   string
		f      Func
		x, y   []uint32
		accept bool
	}{
		// Jaccard |x∩y|/|x∪y|: 4/5 = τ exactly.
		{"jaccard-4/5", Jaccard, seq(0, 5), seq(0, 4), true},
		// 79/100 < τ: |x|=90, |y|=89, overlap 79, union 100.
		{"jaccard-79/100", Jaccard, seq(0, 90), append(seq(0, 79), seq(1000, 10)...), false},
		// 80/100 = τ: |x|=90, |y|=90, overlap 80, union 100.
		{"jaccard-80/100", Jaccard, seq(0, 90), append(seq(0, 80), seq(1000, 10)...), true},
		// 81/100 > τ: |x|=91, |y|=90, overlap 81, union 100.
		{"jaccard-81/100", Jaccard, seq(0, 91), append(seq(0, 81), seq(1000, 9)...), true},

		// Dice 2o/(lx+ly): 8/10 = τ exactly.
		{"dice-8/10", Dice, seq(0, 5), append(seq(0, 4), 100), true},
		// 158/198 < τ: overlap 79 of 99+99.
		{"dice-158/198", Dice, seq(0, 99), append(seq(0, 79), seq(1000, 20)...), false},
		// 160/200 = τ: overlap 80 of 100+100.
		{"dice-160/200", Dice, seq(0, 100), append(seq(0, 80), seq(1000, 20)...), true},

		// Cosine o/√(lx·ly): 4/√25 = τ exactly.
		{"cosine-4/5", Cosine, seq(0, 5), append(seq(0, 4), 100), true},
		// 79/√10000 < τ.
		{"cosine-79/100", Cosine, seq(0, 100), append(seq(0, 79), seq(1000, 21)...), false},
		// 80/√10000 = τ.
		{"cosine-80/100", Cosine, seq(0, 100), append(seq(0, 80), seq(1000, 20)...), true},
		// Required overlap 8 exceeds min(5, 20): infeasible outright.
		{"cosine-infeasible", Cosine, seq(0, 5), seq(0, 20), false},
	}
	for _, c := range cases {
		sim, ok := c.f.Verify(c.x, c.y, tau)
		if ok != c.accept {
			t.Errorf("%s: Verify ok=%v want %v (sim=%v)", c.name, ok, c.accept, sim)
		}
		// The boundary decision must agree in both argument orders.
		if _, ok2 := c.f.Verify(c.y, c.x, tau); ok2 != c.accept {
			t.Errorf("%s: Verify swapped ok=%v want %v", c.name, ok2, c.accept)
		}
	}
}

func TestRationalize(t *testing.T) {
	cases := []struct {
		t        float64
		num, den uint64
	}{
		{0.8, 4, 5}, {0.75, 3, 4}, {0.7, 7, 10}, {0.5, 1, 2},
		{1.0, 1, 1}, {0, 0, 1}, {-1, 0, 1}, {2.0 / 3.0, 666666667, 1000000000},
	}
	for _, c := range cases {
		num, den := Rationalize(c.t)
		if num != c.num || den != c.den {
			t.Errorf("Rationalize(%v) = %d/%d, want %d/%d", c.t, num, den, c.num, c.den)
		}
	}
}

func randomSet(rng *rand.Rand, maxLen int) []uint32 {
	n := rng.Intn(maxLen + 1)
	seen := map[uint32]bool{}
	out := []uint32{}
	for len(out) < n {
		v := uint32(rng.Intn(32))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestVerifyOverlapEarlyTermination(t *testing.T) {
	x := []uint32{1, 2, 3, 4, 5}
	y := []uint32{10, 11, 12, 13, 14}
	o, ok := VerifyOverlap(x, y, 3)
	if ok {
		t.Fatalf("VerifyOverlap reported ok with zero overlap (o=%d)", o)
	}
	o, ok = VerifyOverlap(x, x, 5)
	if !ok || o != 5 {
		t.Fatalf("VerifyOverlap(x, x, 5) = %d, %v", o, ok)
	}
	o, ok = VerifyOverlap(x, y, 0)
	if !ok || o != 0 {
		t.Fatalf("VerifyOverlap(x, y, 0) = %d, %v", o, ok)
	}
}

func TestMulDivExactness(t *testing.T) {
	// The float64 artifacts the old epsilon guarded against: 0.8·5 is
	// 4.000000000000001 in floats; the integer form must give exactly 4.
	if got := mulDivCeil(4, 5, 5); got != 4 {
		t.Fatalf("ceil(4·5/5) = %d, want 4", got)
	}
	if got := mulDivFloor(5, 5, 4); got != 6 {
		t.Fatalf("floor(5·5/4) = %d, want 6", got)
	}
	// 128-bit intermediates: these products overflow int64.
	if got := mulDivCeil(1<<62, 8, 1<<62); got != 8 {
		t.Fatalf("ceil(2⁶²·8/2⁶²) = %d, want 8", got)
	}
	// Saturation when the quotient itself overflows.
	if got := mulDivFloor(1<<62, 8, 1); got != math.MaxInt {
		t.Fatalf("floor(2⁶²·8/1) = %d, want MaxInt", got)
	}
	if got := mulDivCeil(math.MaxUint64, 1, 1); got != math.MaxInt {
		t.Fatalf("ceil(MaxUint64/1) = %d, want MaxInt", got)
	}
}

func TestFuncString(t *testing.T) {
	if Jaccard.String() != "jaccard" || Cosine.String() != "cosine" || Dice.String() != "dice" {
		t.Fatal("String values wrong")
	}
	if Func(99).String() != "Func(99)" {
		t.Fatalf("unknown Func String = %q", Func(99).String())
	}
}

func TestParseFunc(t *testing.T) {
	for _, name := range []string{"jaccard", "cosine", "dice"} {
		f, err := ParseFunc(name)
		if err != nil || f.String() != name {
			t.Fatalf("ParseFunc(%q) = %v, %v", name, f, err)
		}
	}
	if _, err := ParseFunc("euclid"); err == nil {
		t.Fatal("ParseFunc accepted unknown name")
	}
}

func BenchmarkVerifyJaccard(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomSet(rng, 20)
	y := randomSet(rng, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Jaccard.Verify(x, y, 0.8)
	}
}
