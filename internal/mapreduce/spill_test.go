package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// TestSpillEquivalence: spilling at any threshold produces exactly the
// in-memory result, with and without in-mapper combining.
func TestSpillEquivalence(t *testing.T) {
	lines := make([]string, 40)
	rng := rand.New(rand.NewSource(5))
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for i := range lines {
		var sb strings.Builder
		for w := 0; w < 8; w++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		lines[i] = sb.String()
	}
	want := referenceRun(t, lines, wordCountMapper, sumReducer)
	for _, spill := range []int{1, 2, 7, 50, 0} {
		for _, mapper := range []Mapper{wordCountMapper, &aggWordCountMapper{}} {
			fs := newFS()
			WriteTextFile(fs, "in", lines)
			job := Job{
				Name: "spill", FS: fs, Inputs: []string{"in"}, InputFormat: Text,
				Output: "out", Mapper: mapper, Reducer: sumReducer,
				NumReducers: 3, SpillPairs: spill,
			}
			m, err := Run(job)
			if err != nil {
				t.Fatalf("spill=%d mapper=%T: %v", spill, mapper, err)
			}
			got, err := ReadOutputPairs(fs, "out/")
			if err != nil {
				t.Fatal(err)
			}
			sortPairs(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("spill=%d mapper=%T: got %v, want %v", spill, mapper, got, want)
			}
			spilled := 0
			for _, mt := range m.MapTasks {
				spilled += mt.SpillCount
			}
			if spill == 1 && spilled == 0 {
				t.Fatal("threshold 1 never spilled")
			}
			if spill == 0 && spilled != 0 {
				t.Fatalf("unlimited buffer spilled %d times", spilled)
			}
		}
	}
}

func TestSpillMetrics(t *testing.T) {
	fs := newFS()
	WriteTextFile(fs, "in", []string{"a b c d e f g h"})
	m, err := Run(Job{
		Name: "spillm", FS: fs, Inputs: []string{"in"}, InputFormat: Text,
		Output: "out", Mapper: wordCountMapper, Reducer: sumReducer,
		NumReducers: 2, SpillPairs: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	mt := m.MapTasks[0]
	if mt.SpillCount < 2 {
		t.Fatalf("SpillCount = %d, want >= 2 for 8 tokens at threshold 3", mt.SpillCount)
	}
	if mt.SpillBytes == 0 {
		t.Fatal("SpillBytes not recorded")
	}
}

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
