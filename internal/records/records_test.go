package records

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseLineRoundTrip(t *testing.T) {
	r := Record{RID: 42, Fields: []string{"A Title", "Some Authors", "rest of content"}}
	got, err := ParseLine(r.Line())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip = %+v, want %+v", got, r)
	}
}

func TestParseLineErrors(t *testing.T) {
	for _, line := range []string{"", "noRID", "notanumber\ttitle"} {
		if _, err := ParseLine(line); err == nil {
			t.Fatalf("ParseLine(%q) succeeded", line)
		}
	}
}

func TestParseLineMinimal(t *testing.T) {
	got, err := ParseLine("7\t")
	if err != nil {
		t.Fatal(err)
	}
	if got.RID != 7 || len(got.Fields) != 1 || got.Fields[0] != "" {
		t.Fatalf("got %+v", got)
	}
}

func TestRecordLineRoundTripProperty(t *testing.T) {
	clean := func(s string) string {
		s = strings.ReplaceAll(s, "\t", " ")
		return strings.ReplaceAll(s, "\n", " ")
	}
	f := func(rid uint64, f1, f2, f3 string) bool {
		r := Record{RID: rid, Fields: []string{clean(f1), clean(f2), clean(f3)}}
		got, err := ParseLine(r.Line())
		return err == nil && reflect.DeepEqual(got, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinAttr(t *testing.T) {
	r := Record{RID: 1, Fields: []string{"title", "authors", "rest"}}
	if got := r.JoinAttr(FieldTitle, FieldAuthors); got != "title authors" {
		t.Fatalf("JoinAttr = %q", got)
	}
	if got := r.JoinAttr(FieldRest); got != "rest" {
		t.Fatalf("JoinAttr = %q", got)
	}
	if got := r.JoinAttr(9); got != "" {
		t.Fatalf("JoinAttr(out of range) = %q", got)
	}
	short := Record{RID: 2, Fields: []string{"only"}}
	if got := short.JoinAttr(FieldTitle, FieldAuthors); got != "only" {
		t.Fatalf("JoinAttr on short record = %q", got)
	}
}

func TestProjectionRoundTrip(t *testing.T) {
	p := Projection{RID: 123456, Ranks: []uint32{3, 17, 17000, 1 << 30}}
	enc := p.AppendBinary(nil)
	got, err := DecodeProjection(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip = %+v, want %+v", got, p)
	}
}

func TestProjectionEmpty(t *testing.T) {
	p := Projection{RID: 5}
	got, err := DecodeProjection(p.AppendBinary(nil))
	if err != nil || got.RID != 5 || len(got.Ranks) != 0 {
		t.Fatalf("empty projection round trip = %+v, %v", got, err)
	}
}

func TestProjectionRoundTripProperty(t *testing.T) {
	f := func(rid uint64, raw []uint32) bool {
		// Ranks must be sorted and unique for the delta encoding.
		seen := map[uint32]bool{}
		ranks := raw[:0]
		for _, v := range raw {
			if !seen[v] {
				seen[v] = true
				ranks = append(ranks, v)
			}
		}
		sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
		p := Projection{RID: rid, Ranks: ranks}
		enc := p.AppendBinary(nil)
		got, err := DecodeProjection(enc)
		if err != nil || got.RID != rid || !slices.Equal(got.Ranks, ranks) {
			return false
		}
		// Into an arena, with data framed after the projection: used
		// marks where that data starts.
		into, arena, used, err := DecodeProjectionInto([]uint32{9}, append(enc, "\tline"...))
		return err == nil && used == len(enc) && into.RID == rid &&
			slices.Equal(into.Ranks, ranks) && arena[0] == 9 && len(arena) == 1+len(ranks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeProjectionErrors(t *testing.T) {
	if _, err := DecodeProjection(nil); err == nil {
		t.Fatal("DecodeProjection(nil) succeeded")
	}
	p := Projection{RID: 1, Ranks: []uint32{1, 2, 3}}
	enc := p.AppendBinary(nil)
	if _, err := DecodeProjection(enc[:len(enc)-1]); err == nil {
		t.Fatal("DecodeProjection of truncated buffer succeeded")
	}
}

func TestRIDPairRoundTrip(t *testing.T) {
	p := RIDPair{A: 2, B: 11, Sim: 0.875}
	got, err := DecodeRIDPair(p.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.A != 2 || got.B != 11 || math.Abs(got.Sim-0.875) > 1e-9 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestRIDPairRoundTripProperty(t *testing.T) {
	f := func(a, b uint64, simRaw uint32) bool {
		sim := float64(simRaw%1001) / 1000 // [0, 1] with 3 decimals
		p := RIDPair{A: a, B: b, Sim: sim}
		got, err := DecodeRIDPair(p.AppendBinary(nil))
		return err == nil && got.A == a && got.B == b && math.Abs(got.Sim-sim) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRIDPairErrors(t *testing.T) {
	if _, err := DecodeRIDPair(nil); err == nil {
		t.Fatal("DecodeRIDPair(nil) succeeded")
	}
	enc := RIDPair{A: 300, B: 400, Sim: 0.9}.AppendBinary(nil)
	if _, err := DecodeRIDPair(enc[:2]); err == nil {
		t.Fatal("DecodeRIDPair of truncated buffer succeeded")
	}
}

func TestRIDPairString(t *testing.T) {
	s := RIDPair{A: 1, B: 21, Sim: 0.8}.String()
	if s != "1\t21\t0.800000" {
		t.Fatalf("String = %q", s)
	}
}

func TestJoinedPairRoundTrip(t *testing.T) {
	j := JoinedPair{
		Left:  Record{RID: 1, Fields: []string{"t1", "a1", "r1"}},
		Right: Record{RID: 21, Fields: []string{"t2", "a2", "r2"}},
		Sim:   0.84,
	}
	got, err := ParseJoinedPair(j.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Left, j.Left) || !reflect.DeepEqual(got.Right, j.Right) ||
		math.Abs(got.Sim-j.Sim) > 1e-9 {
		t.Fatalf("round trip = %+v, want %+v", got, j)
	}
}

func TestParseJoinedPairErrors(t *testing.T) {
	for _, s := range []string{"", "0.5\x1fonly-one", "x\x1f1\tt\x1f2\tt", "0.5\x1fbad\x1f2\tt"} {
		if _, err := ParseJoinedPair(s); err == nil {
			t.Fatalf("ParseJoinedPair(%q) succeeded", s)
		}
	}
}

func BenchmarkProjectionEncodeDecode(b *testing.B) {
	ranks := make([]uint32, 30)
	for i := range ranks {
		ranks[i] = uint32(i * 37)
	}
	p := Projection{RID: 999999, Ranks: ranks}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := p.AppendBinary(nil)
		if _, err := DecodeProjection(enc); err != nil {
			b.Fatal(err)
		}
	}
}
