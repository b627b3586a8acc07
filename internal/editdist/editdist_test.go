package editdist

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
)

func TestDistanceKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
		{"ab", "ba", 2},
		{"göttingen", "gottingen", 1}, // unicode-aware
	}
	for _, c := range cases {
		if got := Distance(c.a, c.b); got != c.want {
			t.Errorf("Distance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Distance(c.b, c.a); got != c.want {
			t.Errorf("Distance(%q, %q) = %d, want %d (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	clean := func(s string) string {
		if len(s) > 12 {
			s = s[:12]
		}
		return s
	}
	// Identity and upper bound.
	f := func(a, b string) bool {
		a, b = clean(a), clean(b)
		d := Distance(a, b)
		max := len([]rune(a))
		if lb := len([]rune(b)); lb > max {
			max = lb
		}
		return Distance(a, a) == 0 && d >= 0 && d <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	// Triangle inequality.
	tri := func(a, b, c string) bool {
		a, b, c = clean(a), clean(b), clean(c)
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)
	}
	if err := quick.Check(tri, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWithinKAgreesWithDistance over random short strings for all small k.
func TestWithinKAgreesWithDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := "abcd"
	randStr := func() string {
		n := rng.Intn(10)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	for iter := 0; iter < 20000; iter++ {
		a, b := randStr(), randStr()
		for k := 0; k <= 4; k++ {
			want := Distance(a, b) <= k
			if got := WithinK(a, b, k); got != want {
				t.Fatalf("WithinK(%q, %q, %d) = %v, Distance = %d", a, b, k, got, Distance(a, b))
			}
		}
	}
}

// edCorpus builds strings with planted near-duplicates.
func edCorpus(rng *rand.Rand, n int) []string {
	words := []string{"similarity", "parallel", "mapreduce", "database", "cluster", "token"}
	out := make([]string, 0, n)
	var base string
	for i := 0; i < n; i++ {
		if i%3 == 0 || base == "" {
			base = words[rng.Intn(len(words))] + words[rng.Intn(len(words))]
		}
		s := []byte(base)
		for e := rng.Intn(3); e > 0 && len(s) > 1; e-- {
			p := rng.Intn(len(s))
			switch rng.Intn(3) {
			case 0:
				s[p] = byte('a' + rng.Intn(26))
			case 1:
				s = append(s[:p], s[p+1:]...)
			case 2:
				s = append(s[:p], append([]byte{byte('a' + rng.Intn(26))}, s[p:]...)...)
			}
		}
		out = append(out, string(s))
	}
	return out
}

// shortCorpus draws strings of length q … (K+1)·q + K, the range where
// a string has at most K·q grams or can be within K of one that does.
// A third of them are up to K edits away from an earlier string, mostly
// substitutions, which destroy grams without changing the length.
func shortCorpus(rng *rand.Rand, n, k, q int) []string {
	const alphabet = "abcdef"
	minLen, maxLen := q, (k+1)*q+k
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var s []byte
		if i > 0 && rng.Intn(3) == 0 {
			s = []byte(out[rng.Intn(len(out))])
			for e := 1 + rng.Intn(k); e > 0; e-- {
				p := rng.Intn(len(s))
				c := alphabet[rng.Intn(len(alphabet))]
				switch r := rng.Intn(4); {
				case r == 0 && len(s) > minLen:
					s = append(s[:p], s[p+1:]...)
				case r == 1 && len(s) < maxLen:
					s = append(s[:p], append([]byte{c}, s[p:]...)...)
				default:
					s[p] = c
				}
			}
		} else {
			s = make([]byte, minLen+rng.Intn(maxLen-minLen+1))
			for j := range s {
				s[j] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		out = append(out, string(s))
	}
	return out
}

// corpus is one join input and its options.
type corpus struct {
	strs []string
	o    Options
}

// shortCorpora are the seeded short-string corpora, one per (K, seed),
// at q = 3.
func shortCorpora() map[string]corpus {
	out := map[string]corpus{}
	for _, k := range []int{1, 2, 3} {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(100*int64(k) + seed))
			out[fmt.Sprintf("short k=%d seed=%d", k, seed)] = corpus{shortCorpus(rng, 60, k, 3), Options{K: k, Q: 3}}
		}
	}
	return out
}

// TestSelfJoinMatchesBruteForce over random corpora and thresholds, and
// over short strings whose pairs may share no q-gram.
func TestSelfJoinMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		strs := edCorpus(rng, 60)
		for _, k := range []int{0, 1, 2, 3} {
			o := Options{K: k, Q: 3}
			want := BruteForce(strs, o)
			got := SelfJoin(strs, o)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed=%d k=%d: got %v, want %v", seed, k, got, want)
			}
		}
	}
	for name, c := range shortCorpora() {
		if got, want := SelfJoin(c.strs, c.o), BruteForce(c.strs, c.o); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v, want %v", name, got, want)
		}
	}
}

// TestPairSharingNoGram: "abcdef" and "axcdxf" are two substitutions
// apart but share none of their four 3-grams, so at K = 2 only the
// short-string path finds them.
func TestPairSharingNoGram(t *testing.T) {
	strs := []string{"abcdef", "axcdxf"}
	o := Options{K: 2, Q: 3}
	want := []Pair{{I: 0, J: 1, Dist: 2}}
	if got := BruteForce(strs, o); !reflect.DeepEqual(got, want) {
		t.Fatalf("BruteForce = %v, want %v", got, want)
	}
	if got := SelfJoin(strs, o); !reflect.DeepEqual(got, want) {
		t.Errorf("SelfJoin = %v, want %v", got, want)
	}
	if got := mapReduceSelfJoin(t, strs, o); !reflect.DeepEqual(got, want) {
		t.Errorf("MapReduceSelfJoin = %v, want %v", got, want)
	}
}

func TestSelfJoinShortStrings(t *testing.T) {
	strs := []string{"ab", "ac", "a", "abcd", "xyz", "", "b"}
	for _, k := range []int{1, 2} {
		o := Options{K: k, Q: 3}
		want := BruteForce(strs, o)
		got := SelfJoin(strs, o)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: got %v, want %v", k, got, want)
		}
	}
}

func TestCountFilterAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	strs := edCorpus(rng, 80)
	o := Options{K: 2, Q: 3}
	for i := 0; i < len(strs); i++ {
		for j := i + 1; j < len(strs); j++ {
			if Distance(strs[i], strs[j]) <= o.K {
				gi, gj := grams(strs[i], o.Q), grams(strs[j], o.Q)
				if !countFilterOK(gi, gj, o) {
					t.Fatalf("count filter pruned %q ~ %q (d=%d)",
						strs[i], strs[j], Distance(strs[i], strs[j]))
				}
			}
		}
	}
}

// mapReduceSelfJoin runs MapReduceSelfJoin over strs (ids are indices)
// and returns its sorted pairs. The join is one job and writes every
// pair once.
func mapReduceSelfJoin(t *testing.T, strs []string, o Options) []Pair {
	t.Helper()
	fs := dfs.New(dfs.Options{BlockSize: 512, Nodes: 4})
	lines := make([]string, len(strs))
	for i, s := range strs {
		lines[i] = fmt.Sprintf("%d\t%s", i, s)
	}
	if err := mapreduce.WriteTextFile(fs, "in", lines); err != nil {
		t.Fatal(err)
	}
	outPrefix, m, err := MapReduceSelfJoin(fs, "in", "work", o, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Job != "ed-kernel" || len(fs.List("work/")) != len(fs.List(outPrefix+"/")) {
		t.Fatalf("job %q wrote %v, want one job's output", m.Job, fs.List("work/"))
	}
	outLines, err := mapreduce.ReadLines(fs, outPrefix+"/")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, l := range outLines {
		if seen[l] {
			t.Fatalf("line %q written twice", l)
		}
		seen[l] = true
	}
	return SortOutput(outLines)
}

// TestMapReduceSelfJoinMatchesSingleNode: the one-job MapReduce version
// equals the single-node kernel and brute force on near-duplicate and
// short-string corpora.
func TestMapReduceSelfJoinMatchesSingleNode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	strs := edCorpus(rng, 80)
	for _, k := range []int{1, 2, 3} {
		o := Options{K: k, Q: 3}
		if got, want := mapReduceSelfJoin(t, strs, o), BruteForce(strs, o); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: got %v\nwant %v", k, got, want)
		}
	}
	for name, c := range shortCorpora() {
		want := BruteForce(c.strs, c.o)
		if got := mapReduceSelfJoin(t, c.strs, c.o); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v\nwant %v", name, got, want)
		}
		if got := SelfJoin(c.strs, c.o); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: SelfJoin = %v\nwant %v", name, got, want)
		}
	}
}

func TestMapReduceSelfJoinBadInput(t *testing.T) {
	fs := dfs.New(dfs.Options{Nodes: 1})
	if err := mapreduce.WriteTextFile(fs, "in", []string{"not-tab-separated"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := MapReduceSelfJoin(fs, "in", "w", Options{K: 1}, 2, 1); err == nil {
		t.Fatal("malformed input accepted")
	}
}

func TestParseIDLine(t *testing.T) {
	id, s, err := parseIDLine("42\thello\tworld")
	if err != nil || id != 42 || s != "hello\tworld" {
		t.Fatalf("parseIDLine = %d, %q, %v", id, s, err)
	}
	if _, _, err := parseIDLine("noid"); err == nil {
		t.Fatal("missing tab accepted")
	}
	if _, _, err := parseIDLine("x\ty"); err == nil {
		t.Fatal("non-numeric id accepted")
	}
}

func BenchmarkWithinK(b *testing.B) {
	a := strings.Repeat("similarity join ", 8)
	c := strings.Replace(a, "join", "jion", 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WithinK(a, c, 3)
	}
}

func BenchmarkSelfJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	strs := edCorpus(rng, 300)
	o := Options{K: 2, Q: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelfJoin(strs, o)
	}
}
