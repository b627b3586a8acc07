package mapreduce_test

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
)

// wordCounter counts one map task's words and emits one (word, count)
// per distinct word from Cleanup: in-mapper combining.
type wordCounter struct{ counts map[string]int }

// NewTaskInstance gives every map task its own table.
func (*wordCounter) NewTaskInstance() any { return &wordCounter{counts: map[string]int{}} }

func (m *wordCounter) Map(_ *mapreduce.Context, _, value []byte, _ mapreduce.Emitter) error {
	for _, w := range strings.Fields(string(value)) {
		m.counts[w]++
	}
	return nil
}

func (m *wordCounter) Cleanup(_ *mapreduce.Context, out mapreduce.Emitter) error {
	for w, n := range m.counts {
		if err := out.Emit([]byte(w), []byte(strconv.Itoa(n))); err != nil {
			return err
		}
	}
	return nil
}

// Example runs the canonical word count: each map task adds its words up
// and emits (word, count) from Cleanup, and the reducer sums.
func Example() {
	fs := dfs.New(dfs.Options{Nodes: 2})
	if err := mapreduce.WriteTextFile(fs, "in", []string{
		"the quick brown fox",
		"the lazy dog",
	}); err != nil {
		panic(err)
	}

	sum := mapreduce.ReduceFunc(func(_ *mapreduce.Context, key []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
		n := 0
		for v, ok := values.Next(); ok; v, ok = values.Next() {
			i, err := strconv.Atoi(string(v))
			if err != nil {
				return err
			}
			n += i
		}
		return out.Emit(key, []byte(strconv.Itoa(n)))
	})

	if _, err := mapreduce.Run(mapreduce.Job{
		Name:        "wordcount",
		FS:          fs,
		Inputs:      []string{"in"},
		InputFormat: mapreduce.Text,
		Output:      "out",
		Mapper:      &wordCounter{},
		Reducer:     sum,
		NumReducers: 2,
	}); err != nil {
		panic(err)
	}

	var lines []string
	if _, err := mapreduce.Walk(fs, "out/", mapreduce.Pairs, func(key, value []byte) error {
		lines = append(lines, fmt.Sprintf("%s=%s", key, value))
		return nil
	}); err != nil {
		panic(err)
	}
	sort.Strings(lines)
	fmt.Println(strings.Join(lines, " "))
	// Output:
	// brown=1 dog=1 fox=1 lazy=1 quick=1 the=2
}
