package records

import (
	"math/rand"
	"strings"
	"testing"
)

// The byte reader must be ParseLine + JoinAttr on the line bytes: the
// same lines rejected with the same errors, the same RID, the same
// join-attribute bytes for any field list.

var readerFieldLists = [][]int{
	{FieldTitle, FieldAuthors}, {FieldTitle}, {FieldAuthors}, {FieldRest},
	{5}, {5, 0}, {0, 5, 1}, {1, 0}, {0, 0}, {2, 1, 0}, {},
}

func checkReaderAgainstParseLine(t testing.TB, line string) {
	t.Helper()
	rec, wantErr := ParseLine(line)
	rid, ridErr := RID([]byte(line))
	if (wantErr == nil) != (ridErr == nil) || (wantErr != nil && wantErr.Error() != ridErr.Error()) {
		t.Fatalf("RID(%q) error %v, ParseLine error %v", line, ridErr, wantErr)
	}
	if rid != rec.RID {
		t.Fatalf("RID(%q) = %d, ParseLine %d", line, rid, rec.RID)
	}
	for _, fields := range readerFieldLists {
		dst := []byte("kept")
		rid, attr, err := AppendJoinAttr(dst, []byte(line), fields)
		if (wantErr == nil) != (err == nil) || (wantErr != nil && wantErr.Error() != err.Error()) {
			t.Fatalf("AppendJoinAttr(%q, %v) error %v, ParseLine error %v", line, fields, err, wantErr)
		}
		if err != nil {
			continue
		}
		want := "kept" + rec.JoinAttr(fields...)
		if rid != rec.RID || string(attr) != want {
			t.Fatalf("AppendJoinAttr(%q, %v) = %d %q, want %d %q", line, fields, rid, attr, rec.RID, want)
		}
	}
}

var readerSeeds = []string{
	"7\tA Title\tSome Authors\tthe rest",
	"7\tonly title",
	"7\t",
	"7\t\t\t",
	"7",
	"",
	"\t",
	"\ttitle",
	"+5\ttitle\tauthors",
	"-5\ttitle",
	"5 \ttitle",
	"0x10\ttitle",
	"1_000\ttitle",
	"18446744073709551615\tmax\tok",
	"18446744073709551616\tone past\tmax",
	"0000000000000000000000000000000000000000000000000042\tlong\tzeros",
	"12\ttab\tin\tthe\tvery\tlong\ttail\tof\tfields",
	"3\ttitle with \xff bytes\tauthors",
}

func TestReaderMatchesParseLine(t *testing.T) {
	for _, line := range readerSeeds {
		checkReaderAgainstParseLine(t, line)
	}
	alphabet := []string{"\t", "\t", "1", "23", "0", "+", "-", " ", "a", "Title", "x y", "\xff", "18446744073709551616"}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 20000; i++ {
		var sb strings.Builder
		for n := rng.Intn(10); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		checkReaderAgainstParseLine(t, sb.String())
	}
}

func FuzzReadLine(f *testing.F) {
	for _, line := range readerSeeds {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		checkReaderAgainstParseLine(t, line)
	})
}

func TestReaderNegativeFieldIsMissing(t *testing.T) {
	_, attr, err := AppendJoinAttr(nil, []byte("1\ta\tb"), []int{-1, 1})
	if err != nil || string(attr) != " b" {
		t.Fatalf("AppendJoinAttr with a negative field = %q, %v", attr, err)
	}
}

func TestReaderAllocatesNothing(t *testing.T) {
	line := []byte("123456\tEfficient Parallel Set-Similarity Joins Using MapReduce\tRares Vernica Michael J. Carey Chen Li\tSIGMOD 2010")
	fields := []int{FieldTitle, FieldAuthors}
	var attr []byte
	if n := testing.AllocsPerRun(100, func() {
		_, attr, _ = AppendJoinAttr(attr[:0], line, fields)
		_, _ = RID(line)
	}); n != 0 {
		t.Errorf("%v allocations per warmed AppendJoinAttr + RID, want 0", n)
	}
}

// AppendJoinedPair must be ParseLine on both lines followed by
// JoinedPair.String: the same bytes, the same lines rejected with the
// same errors (the left line's first), dst kept.
func checkJoinedAgainstString(t testing.TB, sim float64, left, right string) {
	t.Helper()
	l, wantErr := ParseLine(left)
	r, rErr := ParseLine(right)
	if wantErr == nil {
		wantErr = rErr
	}
	got, err := AppendJoinedPair([]byte("kept"), sim, []byte(left), []byte(right))
	if (wantErr == nil) != (err == nil) || (wantErr != nil && wantErr.Error() != err.Error()) {
		t.Fatalf("AppendJoinedPair(%q, %q) error %v, ParseLine error %v", left, right, err, wantErr)
	}
	want := "kept"
	if err == nil {
		want += JoinedPair{Left: l, Right: r, Sim: sim}.String()
	}
	if string(got) != want {
		t.Fatalf("AppendJoinedPair(%v, %q, %q) = %q, want %q", sim, left, right, got, want)
	}
}

func TestAppendJoinedPairMatchesString(t *testing.T) {
	sims := []float64{0, 1, 0.8, 0.8333333333, 0.9999996, 1e-7, 0.123456789}
	for i, left := range readerSeeds {
		for j, right := range readerSeeds {
			checkJoinedAgainstString(t, sims[(i+j)%len(sims)], left, right)
		}
	}
	alphabet := []string{"\t", "\t", "1", "23", "0", "007", "+5", "-", " ", "a", "Title", "x y", "\xff", "\x1f", "18446744073709551616"}
	rng := rand.New(rand.NewSource(29))
	line := func() string {
		var sb strings.Builder
		if rng.Intn(4) > 0 {
			// Mostly well-formed, so the success path is the common case.
			sb.WriteString(alphabet[2+rng.Intn(5)])
			sb.WriteString("\t")
		}
		for n := rng.Intn(10); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	for i := 0; i < 10000; i++ {
		checkJoinedAgainstString(t, float64(rng.Intn(1e6+1))/1e6, line(), line())
	}
}

func TestAppendJoinedPairAllocatesNothing(t *testing.T) {
	left := []byte("123456\tEfficient Parallel Set-Similarity Joins Using MapReduce\tRares Vernica Michael J. Carey Chen Li\tSIGMOD 2010")
	right := []byte("0654321\tEfficient Parallel Set Similarity Joins\tVernica Carey Li\tSIGMOD")
	var out []byte
	if n := testing.AllocsPerRun(100, func() {
		out, _ = AppendJoinedPair(out[:0], 0.833333, left, right)
	}); n != 0 {
		t.Errorf("%v allocations per warmed AppendJoinedPair, want 0", n)
	}
}
