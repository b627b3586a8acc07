package tokenize

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"
)

// The conformance oracle and the benchmark's verifier both tokenize with
// Word.Tokenize, so a wrong scanner would be wrong on both sides of
// every end-to-end comparison. refWord and refQGram are the string
// implementations the byte-level scanner replaced, kept as the reference
// the Buffer path and the string wrappers are compared to.

func refWord(s string) []string {
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	out := make([]string, 0, len(fields))
	seen := make(map[string]int, len(fields))
	for _, f := range fields {
		out = refAppendOccurrence(out, seen, strings.ToLower(f))
	}
	return out
}

func refQGram(g QGram, s string) []string {
	q := g.Q
	if q <= 0 {
		q = 3
	}
	if s == "" {
		return nil
	}
	pad := strings.Repeat("#", q-1)
	runes := []rune(pad + strings.ToLower(s) + pad)
	out := make([]string, 0, len(runes)-q+1)
	seen := make(map[string]int, len(runes))
	for i := 0; i+q <= len(runes); i++ {
		out = refAppendOccurrence(out, seen, string(runes[i:i+q]))
	}
	return out
}

func refAppendOccurrence(out []string, seen map[string]int, tok string) []string {
	if tok == "" {
		return out
	}
	seen[tok]++
	if n := seen[tok]; n > 1 {
		tok = tok + "~" + strconv.Itoa(n)
	}
	return append(out, tok)
}

// checkAgainstReference compares, token for token, the reference with
// both the Buffer path (through one Buffer reused across calls, as the
// mappers use it) and the string wrapper, for Word and QGram.
func checkAgainstReference(t testing.TB, buf *Buffer, s string, q int) {
	t.Helper()
	same := func(name string, tk Tokenizer, want []string) {
		t.Helper()
		buf.Fill(tk, []byte(s))
		paths := map[string][]string{"Fill": buf.Strings(), "Tokenize": tk.Tokenize(s)}
		for path, got := range paths {
			if len(got) != len(want) {
				t.Fatalf("%s %s(%q): %d tokens %q, reference has %d %q", name, path, s, len(got), got, len(want), want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %s(%q): token %d = %q, reference %q", name, path, s, i, got[i], want[i])
				}
			}
		}
		for i := range want {
			if string(buf.Token(i)) != want[i] {
				t.Fatalf("%s Token(%d) of %q = %q, reference %q", name, i, s, buf.Token(i), want[i])
			}
		}
	}
	same("Word", Word{}, refWord(s))
	g := QGram{Q: q}
	same("QGram"+strconv.Itoa(q), g, refQGram(g, s))
}

var referenceSeeds = []string{
	"",
	"Efficient Parallel Set-Similarity Joins Using MapReduce",
	"to be or not to be, TO BE",
	"a a a A\tbéé b",
	"\x00\xff\xfe punctuation!!! only???",
	"bad\xffutf8 in\xc0\xafside a\xe2\x82word",
	"\xef\xbf\xbd literal replacement \xef\xbf\xbdx",
	// Lower-casing that changes the byte length, title case, and letters
	// with no lower form.
	"İstanbul İİ ǅungla ǅ Straße ΣΊΣΥΦΟΣ Σ KELVIN K Å",
	// Combining marks are not letters: they split words.
	"école café ñ",
	// Digits in other scripts.
	"٣٤٥ १२३ ４５ room１０１",
	// A literal occurrence suffix next to a real one.
	"a~2 a a~2 a ~2 2",
	"aaaa aaaa",
	"ascii and 世界 mixed \U0001f600 世界",
}

func TestTokenizersMatchReference(t *testing.T) {
	var buf Buffer
	for _, s := range referenceSeeds {
		for q := 0; q <= 7; q++ {
			checkAgainstReference(t, &buf, s, q)
		}
	}
	// Random strings over an alphabet dense in the awkward cases.
	alphabet := []string{"a", "B", "c", " ", " ", "-", "~", "2", "#", "İ", "ǅ", "ß", "Σ", "é",
		"́", "٣", "世", "\xff", "\xc0", "\xe2\x82", "\t", "aa", "B", "c"}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		var sb strings.Builder
		for n := rng.Intn(24); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		checkAgainstReference(t, &buf, sb.String(), rng.Intn(8))
	}
}

func FuzzTokenizeBytes(f *testing.F) {
	for i, s := range referenceSeeds {
		f.Add(s, i)
	}
	var buf Buffer
	f.Fuzz(func(t *testing.T, s string, q int) {
		if q < 0 {
			q = -q
		}
		checkAgainstReference(t, &buf, s, q%8)
	})
}

// stubTokenizer has only the string method, like a caller's own
// Tokenizer.
type stubTokenizer struct{}

func (stubTokenizer) Tokenize(s string) []string { return strings.Split(s, "|") }

func TestFillAdaptsCustomTokenizer(t *testing.T) {
	var buf Buffer
	buf.Fill(Word{}, []byte("left over"))
	buf.Fill(stubTokenizer{}, []byte("x|y y|x"))
	want := []string{"x", "y y", "x"} // taken as given: the set is the tokenizer's business
	got := buf.Strings()
	if len(got) != len(want) {
		t.Fatalf("Fill(custom) = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Fill(custom) = %q, want %q", got, want)
		}
	}
}

func TestAppendRanksMatchesSortByRank(t *testing.T) {
	o := ParseOrder("rare\n\nmid\nto\nbe\nto~2\n")
	if o.Len() != 5 {
		t.Fatalf("ParseOrder kept %d tokens, want 5", o.Len())
	}
	var buf Buffer
	s := "to be, or not TO be: mid rare"
	buf.Fill(Word{}, []byte(s))
	got := o.AppendRanks([]uint32{99}, &buf)
	_, want := o.SortByRank(Word{}.Tokenize(s))
	if got[0] != 99 || len(got) != 1+len(want) {
		t.Fatalf("AppendRanks = %v, want 99 then %v", got, want)
	}
	for i, r := range want {
		if got[1+i] != r {
			t.Fatalf("AppendRanks = %v, want 99 then %v", got, want)
		}
	}
}

func TestFillSteadyStateAllocatesNothing(t *testing.T) {
	line := []byte("Efficient Parallel Set-Similarity Joins Using MapReduce Rares Vernica Michael J. Carey Chen Li li")
	o := NewOrder(Word{}.Tokenize(string(line)))
	var buf Buffer
	var ranks []uint32
	for _, tk := range []Tokenizer{Word{}, QGram{Q: 3}} {
		if n := testing.AllocsPerRun(100, func() {
			buf.Fill(tk, line)
			ranks = o.AppendRanks(ranks[:0], &buf)
		}); n != 0 {
			t.Errorf("%T: %v allocations per warmed Fill + AppendRanks, want 0", tk, n)
		}
	}
}

// TestHostileRecord is ROADMAP item 6c's oversized record at the scale a
// unit test affords: 10⁵ tokens, half of them repeats, must tokenize in
// time linear in the input, and the storage the Buffer grew for it must
// not outlive the next record.
func TestHostileRecord(t *testing.T) {
	build := func(n int) []byte {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString("tok")
			sb.WriteString(strconv.Itoa(i % (n / 2)))
			sb.WriteByte(' ')
		}
		return []byte(sb.String())
	}
	var buf Buffer
	timeFill := func(n int) time.Duration {
		in := build(n)
		best := time.Duration(1 << 62)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			buf.Fill(Word{}, in)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		if buf.Len() != n {
			t.Fatalf("%d tokens in, %d out", n, buf.Len())
		}
		if got, want := string(buf.Token(n-1)), "tok"+strconv.Itoa(n/2-1)+"~2"; got != want {
			t.Fatalf("last token %q, want %q", got, want)
		}
		return best
	}
	small, big := timeFill(10000), timeFill(100000)
	// Ten times the input; quadratic dedupe would be a hundred times
	// slower. 40× leaves room for cache effects and a noisy host.
	if big > 40*small+10*time.Millisecond {
		t.Errorf("10⁵ tokens took %v, 10⁴ took %v: not linear", big, small)
	}
	if buf.retained() <= maxRetained {
		t.Fatalf("a 10⁵-token record retained only %d bytes; the cap is not exercised", buf.retained())
	}
	buf.Fill(Word{}, []byte("an ordinary record"))
	if buf.retained() > maxRetained {
		t.Errorf("Buffer still holds %d bytes after the next record, cap %d", buf.retained(), maxRetained)
	}

	// The rank sort is the other per-record loop; it must not be
	// quadratic either.
	buf.Fill(Word{}, build(100000))
	o := NewOrder(buf.Strings())
	start := time.Now()
	ranks := o.AppendRanks(nil, &buf)
	if len(ranks) != 100000 || ranks[0] != 0 || ranks[len(ranks)-1] != 99999 {
		t.Fatalf("AppendRanks returned %d ranks", len(ranks))
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("ranking 10⁵ tokens took %v", d)
	}
}
