// Package simfn defines the set-similarity functions used by the join
// pipeline and the filter bounds derived from them.
//
// A record's join attribute is a token set represented as a slice of
// uint32 ranks sorted in increasing global-frequency order (see
// internal/tokenize). All functions here operate on such sorted rank
// slices. For a similarity function sim and threshold τ, the package
// provides:
//
//   - Sim(x, y): the similarity value;
//   - PrefixLength(l, τ): how many leading (rarest) tokens must be
//     examined so that any pair with sim ≥ τ shares at least one prefix
//     token (the prefix-filtering principle, §2.3 of the paper);
//   - LengthBounds(l, τ): the [lo, hi] range of set sizes that can still
//     reach τ against a set of size l (the length filter);
//   - OverlapThreshold(lx, ly, τ): the minimum intersection size two sets
//     of the given sizes need for sim ≥ τ.
//
// Jaccard is the function used throughout the paper's evaluation
// (τ = 0.80); cosine and dice are provided because §2 lists them as
// alternatives, and their bounds follow the standard derivations from the
// set-similarity join literature.
package simfn

import (
	"fmt"
	"math"
	"math/bits"
)

// Func identifies a set-similarity function.
type Func int

const (
	// Jaccard is |x∩y| / |x∪y|.
	Jaccard Func = iota
	// Cosine is |x∩y| / sqrt(|x|·|y|).
	Cosine
	// Dice is 2|x∩y| / (|x|+|y|).
	Dice
)

// String implements fmt.Stringer.
func (f Func) String() string {
	switch f {
	case Jaccard:
		return "jaccard"
	case Cosine:
		return "cosine"
	case Dice:
		return "dice"
	default:
		return fmt.Sprintf("Func(%d)", int(f))
	}
}

// ParseFunc converts a name accepted on command lines to a Func.
func ParseFunc(name string) (Func, error) {
	switch name {
	case "jaccard":
		return Jaccard, nil
	case "cosine":
		return Cosine, nil
	case "dice":
		return Dice, nil
	default:
		return 0, fmt.Errorf("simfn: unknown similarity function %q", name)
	}
}

// Overlap returns |x∩y| for two rank slices sorted in increasing order.
func Overlap(x, y []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] == y[j]:
			n++
			i++
			j++
		case x[i] < y[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// Sim returns the similarity of the two sorted rank slices under f.
// Two empty sets have similarity 0.
func (f Func) Sim(x, y []uint32) float64 {
	o := Overlap(x, y)
	return f.SimFromOverlap(o, len(x), len(y))
}

// SimFromOverlap returns the similarity of two sets of the given
// lengths with overlap o — for callers that already computed the exact
// overlap (e.g. a word-parallel merge) and only need the score.
func (f Func) SimFromOverlap(o, lx, ly int) float64 {
	if lx == 0 || ly == 0 {
		return 0
	}
	switch f {
	case Jaccard:
		return float64(o) / float64(lx+ly-o)
	case Cosine:
		return float64(o) / math.Sqrt(float64(lx)*float64(ly))
	case Dice:
		return 2 * float64(o) / float64(lx+ly)
	default:
		panic("simfn: unknown function")
	}
}

// Exact threshold arithmetic.
//
// The τ boundary is decided with integer arithmetic, never floats: a
// float τ is first snapped to an exact rational num/den (Rationalize),
// and every ceil/floor bound below is an integer division over that
// rational, with 128-bit intermediates where the products can exceed
// 64 bits. The earlier float implementation guarded its ceilings with a
// 1e-9 epsilon, which made Verify accept pairs with sim ∈ [τ−eps, τ);
// the integer forms agree exactly with sim ≥ τ at boundary pairs.
//
// Set sizes are assumed to fit in 31 bits (a record with 2³¹ tokens is
// far beyond anything the pipeline materializes); with den ≤ 1e9 every
// product below then fits in the 128-bit intermediates.

// ratGrid is the fixed-point grid thresholds are snapped to. A float64
// like 0.8 is not exactly 4/5; snapping to the nearest 1e-9 step and
// reducing recovers the rational the user meant (0.8 → 4/5, 0.7 → 7/10)
// while any float is displaced by at most 5e-10.
const ratGrid = 1_000_000_000

// Rationalize converts a similarity threshold to the exact rational
// num/den the package decides boundaries with: the nearest multiple of
// 1e-9, reduced to lowest terms. Thresholds ≤ 0 map to 0/1 (everything
// passes) and thresholds are not clamped above: τ > 1 yields num > den,
// which no pair satisfies.
func Rationalize(t float64) (num, den uint64) {
	if t <= 0 {
		return 0, 1
	}
	n := uint64(math.Round(t * ratGrid))
	g := gcd(n, ratGrid)
	return n / g, ratGrid / g
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// mulDivCeil returns ⌈a·b/c⌉ with a 128-bit intermediate product,
// saturating at MaxInt when the quotient exceeds the int range.
func mulDivCeil(a, b, c uint64) int {
	hi, lo := bits.Mul64(a, b)
	if hi >= c {
		return math.MaxInt
	}
	q, r := bits.Div64(hi, lo, c)
	if r != 0 {
		q++
	}
	if q > math.MaxInt {
		return math.MaxInt
	}
	return int(q)
}

// mulDivFloor returns ⌊a·b/c⌋ with a 128-bit intermediate product,
// saturating at MaxInt when the quotient exceeds the int range.
func mulDivFloor(a, b, c uint64) int {
	hi, lo := bits.Mul64(a, b)
	if hi >= c {
		return math.MaxInt
	}
	q, _ := bits.Div64(hi, lo, c)
	if q > math.MaxInt {
		return math.MaxInt
	}
	return int(q)
}

// cosineGE reports o²·den² ≥ num²·lx·ly — the exact integer form of
// o/√(lx·ly) ≥ num/den — comparing 128-bit products.
func cosineGE(o, lx, ly, num, den uint64) bool {
	lhsHi, lhsLo := bits.Mul64(o*den, o*den)
	rhsHi, rhsLo := bits.Mul64(num*num, lx*ly)
	return lhsHi > rhsHi || (lhsHi == rhsHi && lhsLo >= rhsLo)
}

// cosineNeed returns the smallest o with cosine(o, lx, ly) ≥ num/den:
// ⌈num·√(lx·ly)/den⌉ computed exactly. A float estimate lands within a
// few ulps of the answer and the exact 128-bit predicate walks to the
// true minimum.
func cosineNeed(lx, ly, num, den uint64) int {
	if num == 0 || lx == 0 || ly == 0 {
		return 0
	}
	est := math.Ceil(float64(num) / float64(den) * math.Sqrt(float64(lx)*float64(ly)))
	o := uint64(0)
	if est > 0 {
		o = uint64(est)
	}
	for o > 0 && cosineGE(o-1, lx, ly, num, den) {
		o--
	}
	for !cosineGE(o, lx, ly, num, den) {
		o++
	}
	return int(o)
}

// Threshold is a similarity function bound to one threshold τ, already
// snapped to its exact rational (Rationalize). Kernels build one per
// index, reducer or service with Func.At and call its methods in their
// inner loops: the bounds below are then pure integer arithmetic, with no
// per-call rounding and gcd. The zero value is not usable.
type Threshold struct {
	fn       Func
	tau      float64
	num, den uint64 // Rationalize(tau)
}

// At binds f to the threshold t.
func (f Func) At(t float64) Threshold {
	num, den := Rationalize(t)
	return Threshold{fn: f, tau: t, num: num, den: den}
}

// OverlapThreshold returns the minimum |x∩y| required for two sets of
// sizes lx and ly to satisfy sim ≥ τ. The result may exceed min(lx, ly),
// in which case no overlap suffices and the pair can be pruned outright.
// The threshold is exact: overlap ≥ OverlapThreshold ⇔ sim ≥ τ, for the
// rationalized τ (see Rationalize).
func (th Threshold) OverlapThreshold(lx, ly int) int {
	num, den := th.num, th.den
	switch th.fn {
	case Jaccard:
		// o/(lx+ly−o) ≥ num/den  ⇔  o·(num+den) ≥ num·(lx+ly)
		return mulDivCeil(num, uint64(lx+ly), num+den)
	case Cosine:
		return cosineNeed(uint64(lx), uint64(ly), num, den)
	case Dice:
		// 2o/(lx+ly) ≥ num/den  ⇔  2o·den ≥ num·(lx+ly)
		return mulDivCeil(num, uint64(lx+ly), 2*den)
	default:
		panic("simfn: unknown function")
	}
}

// LengthBounds returns the inclusive range [lo, hi] of sizes a set may
// have and still reach sim ≥ τ against a set of size l (the length filter
// of Arasu et al.). For l == 0 it returns [0, 0]. Bounds are exact for
// the rationalized τ; hi saturates at MaxInt for vanishing thresholds.
func (th Threshold) LengthBounds(l int) (lo, hi int) {
	if l == 0 {
		return 0, 0
	}
	num, den := th.num, th.den
	if num == 0 {
		return 0, math.MaxInt
	}
	switch th.fn {
	case Jaccard:
		// min(l,m)/max(l,m) ≥ num/den ⇒ m ∈ [num·l/den, den·l/num].
		return mulDivCeil(num, uint64(l), den), mulDivFloor(den, uint64(l), num)
	case Cosine:
		// √(min/max) ≥ num/den ⇒ m ∈ [num²·l/den², den²·l/num²].
		return mulDivCeil(num*num, uint64(l), den*den), mulDivFloor(den*den, uint64(l), num*num)
	case Dice:
		// 2·min/(l+m) ≥ num/den ⇒ m ∈ [num·l/(2den−num), (2den−num)·l/num].
		return mulDivCeil(num, uint64(l), 2*den-num), mulDivFloor(2*den-num, uint64(l), num)
	default:
		panic("simfn: unknown function")
	}
}

// PrefixLength returns the prefix size for a set of l tokens: examining
// the first PrefixLength tokens of each set (in global rank order)
// guarantees that any pair with sim ≥ τ shares at least one prefix token.
// The bound is l − minOverlap(l, l') + 1 maximized over admissible
// partner sizes l'; for the functions here the standard closed forms are
// used. Returns 0 for an empty set.
func (th Threshold) PrefixLength(l int) int {
	if l == 0 {
		return 0
	}
	num, den := th.num, th.den
	var p int
	switch th.fn {
	case Jaccard:
		// l − ⌈τ·l⌉ + 1: a partner must contain at least ⌈τ·l⌉ of the
		// set's tokens (the self-pair case is the tightest).
		p = l - mulDivCeil(num, uint64(l), den) + 1
	case Cosine:
		p = l - mulDivCeil(num*num, uint64(l), den*den) + 1
	case Dice:
		p = l - mulDivCeil(num, uint64(l), 2*den-num) + 1
	default:
		panic("simfn: unknown function")
	}
	if p < 1 {
		p = 1
	}
	if p > l {
		p = l
	}
	return p
}

// needTableLen is the span of partner lengths, counted from the length
// window's lower bound, that a NeedTable holds. At τ = 0.8 a Jaccard
// window spans 0.45·lx lengths, so probes of up to ~280 tokens never
// leave the table.
const needTableLen = 128

// NeedTable memoizes Threshold.OverlapThreshold for one probe length. The
// overlap threshold depends only on (lx, ly, τ) and the partners a probe
// meets span a handful of lengths, so an index computes it once per
// partner length and probe length — consecutive probes of a length-ordered
// stream share lx — instead of once per candidate (a 128-bit
// multiply-divide each). The zero value is ready to use; one table serves
// one Threshold.
type NeedTable struct {
	lx, lo int
	tab    [needTableLen]int32 // OverlapThreshold(lx, lo+i) + 1; 0 = not computed
}

// Need returns th.OverlapThreshold(lx, ly). lo is the lower bound of lx's
// length window (0 when the length filter is off): the table covers
// partner lengths lo … lo+127 and anything outside is computed directly.
func (t *NeedTable) Need(th Threshold, lx, lo, ly int) int {
	i := ly - lo
	if i < 0 || i >= needTableLen {
		return th.OverlapThreshold(lx, ly)
	}
	if t.lx != lx || t.lo != lo {
		t.lx, t.lo = lx, lo
		t.tab = [needTableLen]int32{}
	}
	if n := t.tab[i]; n != 0 {
		return int(n - 1)
	}
	n := th.OverlapThreshold(lx, ly)
	t.tab[i] = int32(n + 1)
	return n
}

// OverlapThreshold is Threshold.OverlapThreshold for a float τ.
func (f Func) OverlapThreshold(lx, ly int, t float64) int { return f.At(t).OverlapThreshold(lx, ly) }

// LengthBounds is Threshold.LengthBounds for a float τ.
func (f Func) LengthBounds(l int, t float64) (lo, hi int) { return f.At(t).LengthBounds(l) }

// PrefixLength is Threshold.PrefixLength for a float τ.
func (f Func) PrefixLength(l int, t float64) int { return f.At(t).PrefixLength(l) }

// VerifyOverlap computes |x∩y| with early termination: it returns
// (overlap, true) if the overlap reaches need, and (partial, false) as
// soon as the remaining tokens cannot reach need. x and y must be sorted.
func VerifyOverlap(x, y []uint32, need int) (int, bool) {
	if need <= 0 {
		return Overlap(x, y), true
	}
	o, i, j := 0, 0, 0
	for i < len(x) && j < len(y) {
		// Even if every remaining token matched, can we still reach need?
		rem := len(x) - i
		if r2 := len(y) - j; r2 < rem {
			rem = r2
		}
		if o+rem < need {
			return o, false
		}
		switch {
		case x[i] == y[j]:
			o++
			i++
			j++
		case x[i] < y[j]:
			i++
		default:
			j++
		}
	}
	return o, o >= need
}

// Verify reports whether sim(x, y) ≥ τ and returns the exact similarity
// when it is. When the pair fails the threshold the returned similarity
// is a lower bound only (early termination may have stopped counting).
//
// The decision is exact: because OverlapThreshold is the precise minimum
// overlap at which sim reaches the rationalized τ, reaching it *is* the
// acceptance condition — no float comparison (and no epsilon) is
// involved, so a pair with sim strictly below τ is never admitted and a
// boundary pair (sim exactly τ) always is.
func (th Threshold) Verify(x, y []uint32) (float64, bool) {
	if len(x) == 0 || len(y) == 0 {
		return 0, th.tau <= 0
	}
	need := th.OverlapThreshold(len(x), len(y))
	if need > len(x) || need > len(y) {
		return 0, false
	}
	// VerifyOverlap only terminates early on failure, so on success o is
	// the exact overlap.
	o, ok := VerifyOverlap(x, y, need)
	return th.fn.SimFromOverlap(o, len(x), len(y)), ok
}

// Verify is Threshold.Verify for a float τ.
func (f Func) Verify(x, y []uint32, t float64) (float64, bool) { return f.At(t).Verify(x, y) }
