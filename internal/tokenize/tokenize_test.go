package tokenize

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestWordBasic(t *testing.T) {
	got := Word{}.Tokenize("I will call back")
	want := []string{"i", "will", "call", "back"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestWordCleaning(t *testing.T) {
	got := Word{}.Tokenize("  Smith, John-W.  (2010)!! ")
	want := []string{"smith", "john", "w", "2010"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestWordDuplicatesGetOccurrenceSuffix(t *testing.T) {
	got := Word{}.Tokenize("to be or not to be")
	want := []string{"to", "be", "or", "not", "to~2", "be~2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestWordEmptyAndPunctuationOnly(t *testing.T) {
	if got := (Word{}).Tokenize(""); len(got) != 0 {
		t.Fatalf("Tokenize(\"\") = %v", got)
	}
	if got := (Word{}).Tokenize("!!! ... ---"); len(got) != 0 {
		t.Fatalf("Tokenize(punct) = %v", got)
	}
}

func TestWordUnicode(t *testing.T) {
	got := Word{}.Tokenize("Gödel, Escher & Bach")
	want := []string{"gödel", "escher", "bach"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestWordNoDuplicatesProperty(t *testing.T) {
	f := func(s string) bool {
		toks := Word{}.Tokenize(s)
		seen := make(map[string]bool, len(toks))
		for _, tok := range toks {
			if tok == "" || seen[tok] {
				return false
			}
			seen[tok] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQGramBasic(t *testing.T) {
	got := QGram{Q: 2}.Tokenize("abcd")
	want := []string{"#a", "ab", "bc", "cd", "d#"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestQGramPadding(t *testing.T) {
	got := QGram{Q: 3}.Tokenize("ab")
	want := []string{"##a", "#ab", "ab#", "b##"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	// The empty string has no grams: padding alone is not a token, so
	// two empty attributes do not join.
	if got := (QGram{Q: 3}).Tokenize(""); got != nil {
		t.Fatalf("Tokenize(\"\") = %v, want nil", got)
	}
}

// TestQGramShortString: a string shorter than Q still yields one gram
// per window of its padded form, every gram Q runes long.
func TestQGramShortString(t *testing.T) {
	got := QGram{Q: 5}.Tokenize("ab")
	want := []string{"####a", "###ab", "##ab#", "#ab##", "ab###", "b####"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestQGramDefaultQ(t *testing.T) {
	got := QGram{}.Tokenize("abc")
	// q defaults to 3, padded with "##".
	if len(got) != 5 || got[0] != "##a" {
		t.Fatalf("Tokenize = %v", got)
	}
}

func TestQGramRepeats(t *testing.T) {
	got := QGram{Q: 1}.Tokenize("aa")
	want := []string{"a", "a~2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestOrderRankAndToken(t *testing.T) {
	o := NewOrder([]string{"rare", "mid", "common"})
	if o.Len() != 3 {
		t.Fatalf("Len = %d", o.Len())
	}
	r, ok := o.Rank("rare")
	if !ok || r != 0 {
		t.Fatalf("Rank(rare) = %d, %v", r, ok)
	}
	r, ok = o.Rank("common")
	if !ok || r != 2 {
		t.Fatalf("Rank(common) = %d, %v", r, ok)
	}
	if _, ok := o.Rank("absent"); ok {
		t.Fatal("Rank(absent) reported ok")
	}
	if o.Token(1) != "mid" {
		t.Fatalf("Token(1) = %q", o.Token(1))
	}
}

func TestSortByRank(t *testing.T) {
	o := NewOrder([]string{"c", "a", "b"}) // c rarest
	toks := []string{"a", "b", "c"}
	kept, ranks := o.SortByRank(toks)
	if !reflect.DeepEqual(kept, []string{"c", "a", "b"}) {
		t.Fatalf("kept = %v", kept)
	}
	if !reflect.DeepEqual(ranks, []uint32{0, 1, 2}) {
		t.Fatalf("ranks = %v", ranks)
	}
}

func TestSortByRankDropsUnknown(t *testing.T) {
	o := NewOrder([]string{"x", "y"})
	kept, ranks := o.SortByRank([]string{"z", "y", "w", "x"})
	if !reflect.DeepEqual(kept, []string{"x", "y"}) || !reflect.DeepEqual(ranks, []uint32{0, 1}) {
		t.Fatalf("kept = %v, ranks = %v", kept, ranks)
	}
}

func TestSortByRankProperty(t *testing.T) {
	// SortByRank must produce ranks in non-decreasing order and keep the
	// token↔rank alignment, for any vocabulary permutation.
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	o := NewOrder(vocab)
	f := func(idx []uint8) bool {
		toks := make([]string, 0, len(idx))
		for _, i := range idx {
			toks = append(toks, vocab[int(i)%len(vocab)])
		}
		kept, ranks := o.SortByRank(append([]string(nil), toks...))
		if len(kept) != len(ranks) {
			return false
		}
		if !sort.SliceIsSorted(ranks, func(i, j int) bool { return ranks[i] < ranks[j] }) {
			return false
		}
		for i := range kept {
			r, ok := o.Rank(kept[i])
			if !ok || r != ranks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRanks(t *testing.T) {
	o := NewOrder([]string{"a", "b"})
	got := o.Ranks([]string{"b", "missing", "a"})
	if !reflect.DeepEqual(got, []uint32{1, 0}) {
		t.Fatalf("Ranks = %v", got)
	}
}

func TestPaperExample(t *testing.T) {
	// §2.3: string "I will call back", global ordering
	// {back, call, will, I} — prefix of length 2 is [back, call].
	o := NewOrder([]string{"back", "call", "will", "i"})
	toks := Word{}.Tokenize("I will call back")
	kept, _ := o.SortByRank(toks)
	if !reflect.DeepEqual(kept[:2], []string{"back", "call"}) {
		t.Fatalf("prefix = %v, want [back call]", kept[:2])
	}
}

func BenchmarkWordTokenize(b *testing.B) {
	s := strings.Repeat("Efficient Parallel Set-Similarity Joins Using MapReduce ", 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Word{}.Tokenize(s)
	}
}

func BenchmarkSortByRank(b *testing.B) {
	vocab := make([]string, 1000)
	for i := range vocab {
		vocab[i] = "tok" + strings.Repeat("x", i%7) + string(rune('a'+i%26))
	}
	// Deduplicate vocab entries (the construction above repeats).
	seen := map[string]bool{}
	uniq := vocab[:0]
	for _, v := range vocab {
		if !seen[v] {
			seen[v] = true
			uniq = append(uniq, v)
		}
	}
	o := NewOrder(uniq)
	sample := append([]string(nil), uniq[:20]...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := append([]string(nil), sample...)
		o.SortByRank(buf)
	}
}
