package mapreduce

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"
	"testing/quick"
)

// TestMergeRunsProperty: merging any split of a sorted sequence
// reproduces the sequence.
func TestMergeRunsProperty(t *testing.T) {
	f := func(raw []uint16, cuts []uint8) bool {
		pairs := make([]Pair, len(raw))
		for i, v := range raw {
			pairs[i] = Pair{Key: []byte(fmt.Sprintf("%05d", v%997)), Value: []byte(strconv.Itoa(i))}
		}
		sortPairs(pairs)
		// Split into runs at the cut points.
		var runs [][]Pair
		prev := 0
		for _, c := range cuts {
			at := prev + int(c)%(len(pairs)-prev+1)
			runs = append(runs, pairs[prev:at])
			prev = at
			if prev >= len(pairs) {
				break
			}
		}
		runs = append(runs, pairs[prev:])
		merged := mergeRuns(runs)
		if len(merged) != len(pairs) {
			return false
		}
		for i := range merged {
			if !bytes.Equal(merged[i].Key, pairs[i].Key) || !bytes.Equal(merged[i].Value, pairs[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeRunsEdgeCases(t *testing.T) {
	if got := mergeRuns(nil); got != nil {
		t.Fatalf("mergeRuns(nil) = %v", got)
	}
	if got := mergeRuns([][]Pair{nil, {}}); got != nil {
		t.Fatalf("mergeRuns(empty runs) = %v", got)
	}
	one := []Pair{{Key: []byte("k")}}
	if got := mergeRuns([][]Pair{nil, one}); len(got) != 1 {
		t.Fatalf("mergeRuns(single) = %v", got)
	}
}

func TestEncodeDecodeRunRoundTrip(t *testing.T) {
	in := []Pair{
		{Key: nil, Value: nil},
		{Key: []byte("k"), Value: bytes.Repeat([]byte("v"), 100)},
		{Key: []byte{0, 1}, Value: []byte{}},
	}
	out, err := decodeRun(encodeRun(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d pairs", len(out))
	}
	for i := range in {
		if !bytes.Equal(out[i].Key, in[i].Key) || !bytes.Equal(out[i].Value, in[i].Value) {
			t.Fatalf("pair %d mismatch", i)
		}
	}
}
