// Package editdist implements approximate string joins under edit
// (Levenshtein) distance — the application the paper's footnote 1 points
// at ("the techniques described in this paper can also be used for
// approximate string search using the edit or Levenshtein distance").
//
// Strings are mapped to q-gram sets (see tokenize.QGram); the standard
// count filter makes the set-similarity machinery applicable: one edit
// operation destroys at most q q-grams, so strings within edit distance K
// share at least max(|Gx|, |Gy|) − K·q q-grams, and the prefix filter
// holds with prefixes of K·q + 1 grams — but only when that bound is
// positive. A string with at most K·q grams (length ≤ (K+1)·q − 1) can
// be within K of a string it shares no gram with ("abcdef" and "axcdxf"
// at K = 2, q = 3), so such short strings skip the prefix filter and are
// checked against every string in their length window. Candidates are
// verified with a banded dynamic program in O(K·min(len)).
//
// SelfJoin is the single-node kernel; MapReduceSelfJoin runs the same
// join as one job on internal/mapreduce, routing strings by their prefix
// grams exactly like the paper's Stage 2 and emitting each pair from the
// one reduce group that owns it.
package editdist

import (
	"sort"

	"fuzzyjoin/internal/tokenize"
)

// Options configures a join.
type Options struct {
	// K is the maximum edit distance (inclusive).
	K int
	// Q is the q-gram length; defaults to 3 (no padding: length-based
	// bounds assume unpadded grams).
	Q int
}

func (o *Options) fillDefaults() {
	if o.Q <= 0 {
		o.Q = 3
	}
	if o.K < 0 {
		o.K = 0
	}
}

// Distance returns the exact Levenshtein distance between a and b.
func Distance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost // substitute
			if d := prev[j] + 1; d < m {
				m = d // delete
			}
			if d := cur[j-1] + 1; d < m {
				m = d // insert
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// WithinK reports whether Distance(a, b) ≤ k, using a banded dynamic
// program that touches only the 2k+1 diagonals that can stay under k.
func WithinK(a, b string, k int) bool {
	ra, rb := []rune(a), []rune(b)
	if len(ra) > len(rb) {
		ra, rb = rb, ra
	}
	if len(rb)-len(ra) > k {
		return false
	}
	if k == 0 {
		return string(ra) == string(rb)
	}
	const inf = int(^uint(0) >> 2)
	width := 2*k + 1
	prev := make([]int, width)
	cur := make([]int, width)
	// prev[d] = distance for diagonal offset j−i = d−k at row i.
	for d := 0; d < width; d++ {
		j := d - k
		if j < 0 {
			prev[d] = inf
		} else {
			prev[d] = j // row 0: distance to b[:j] is j inserts
		}
	}
	for i := 1; i <= len(ra); i++ {
		for d := 0; d < width; d++ {
			j := i + d - k
			if j < 0 || j > len(rb) {
				cur[d] = inf
				continue
			}
			if j == 0 {
				cur[d] = i
				continue
			}
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			m := inf
			if prev[d] < inf { // substitute: (i-1, j-1) is same diagonal
				m = prev[d] + cost
			}
			if d+1 < width && prev[d+1] < inf { // delete from a: (i-1, j)
				if v := prev[d+1] + 1; v < m {
					m = v
				}
			}
			if d-1 >= 0 && cur[d-1] < inf { // insert into a: (i, j-1)
				if v := cur[d-1] + 1; v < m {
					m = v
				}
			}
			cur[d] = m
		}
		prev, cur = cur, prev
	}
	d := len(rb) - len(ra) + k
	return d < len(prev) && prev[d] <= k
}

// Pair is one join result: indices into the input slice and the exact
// distance.
type Pair struct {
	I, J int
	Dist int
}

// grams returns the occurrence-distinguished q-gram set of s, sorted by
// the global gram order (lexicographic — any fixed total order satisfies
// the prefix-filter requirement; frequency order would prune better).
// Strings shorter than q have no q-grams (the tokenizer's whole-string
// fallback would break the count-filter math); like every string with at
// most K·q grams they take the short-string path.
func grams(s string, q int) []string {
	if len([]rune(s)) < q {
		return nil
	}
	g := tokenize.QGram{Q: q, NoPad: true}.Tokenize(s)
	sort.Strings(g)
	return g
}

// overlap counts common elements of two sorted string slices.
func overlap(a, b []string) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// countFilterOK applies the q-gram count filter: ed(x, y) ≤ K requires
// |Gx ∩ Gy| ≥ max(|Gx|, |Gy|) − K·q.
func countFilterOK(gx, gy []string, o Options) bool {
	need := len(gx)
	if len(gy) > need {
		need = len(gy)
	}
	need -= o.K * o.Q
	if need <= 0 {
		return true
	}
	return overlap(gx, gy) >= need
}

// short reports whether a gram set is too small for the prefix filter:
// with at most K·q grams the count bound max(|Gx|, |Gy|) − K·q can be ≤ 0.
func short(g []string, o Options) bool { return len(g) <= o.K*o.Q }

// prefixLen is the ed-join prefix: K·q + 1 grams (or the whole set).
func prefixLen(n int, o Options) int {
	p := o.K*o.Q + 1
	if p > n {
		p = n
	}
	return p
}

// SelfJoin finds all string pairs within edit distance K. Each unordered
// pair is reported once with I < J.
func SelfJoin(strs []string, o Options) []Pair {
	o.fillDefaults()
	gsets := make([][]string, len(strs))
	for i, s := range strs {
		gsets[i] = grams(s, o.Q)
	}
	var out []Pair
	verify := func(i, j int) {
		if i > j {
			i, j = j, i
		}
		if WithinK(strs[i], strs[j], o.K) {
			out = append(out, Pair{I: i, J: j, Dist: Distance(strs[i], strs[j])})
		}
	}

	// Inverted index over prefix grams; probe-then-insert streaming.
	post := map[string][]int{}
	for i, gx := range gsets {
		if short(gx, o) {
			continue
		}
		cands := map[int]bool{}
		for _, g := range gx[:prefixLen(len(gx), o)] {
			for _, j := range post[g] {
				cands[j] = true
			}
		}
		for j := range cands {
			// Length filter: |len(x) − len(y)| ≤ K.
			li, lj := len([]rune(strs[i])), len([]rune(strs[j]))
			if li-lj > o.K || lj-li > o.K {
				continue
			}
			if !countFilterOK(gx, gsets[j], o) {
				continue
			}
			verify(i, j)
		}
		for _, g := range gx[:prefixLen(len(gx), o)] {
			post[g] = append(post[g], i)
		}
	}

	// Short strings bypass the index; check them against every other
	// string in their length window directly. The index pairs only
	// strings that are not short, and a pair of two short strings is
	// checked from its smaller index, so every pair is verified once.
	for i, g := range gsets {
		if !short(g, o) {
			continue
		}
		li := len([]rune(strs[i]))
		for j := range strs {
			if j == i || j < i && short(gsets[j], o) {
				continue
			}
			if lj := len([]rune(strs[j])); li-lj <= o.K && lj-li <= o.K {
				verify(i, j)
			}
		}
	}
	sort.Slice(out, func(x, y int) bool {
		if out[x].I != out[y].I {
			return out[x].I < out[y].I
		}
		return out[x].J < out[y].J
	})
	return out
}

// BruteForce verifies every pair with the exact distance (the test
// oracle).
func BruteForce(strs []string, o Options) []Pair {
	o.fillDefaults()
	var out []Pair
	for i := 0; i < len(strs); i++ {
		for j := i + 1; j < len(strs); j++ {
			if d := Distance(strs[i], strs[j]); d <= o.K {
				out = append(out, Pair{I: i, J: j, Dist: d})
			}
		}
	}
	return out
}
