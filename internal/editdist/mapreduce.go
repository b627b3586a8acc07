package editdist

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"

	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
)

// MapReduceSelfJoin runs the edit-distance self-join on the MapReduce
// engine, shaped like the paper's pipeline: a kernel job routes each
// string by its K·q+1 prefix grams and verifies candidates at reducers; a
// second job de-duplicates pairs found under several shared grams.
//
// Input is a Text-format DFS file of "id<TAB>string" lines; the result
// (id pairs and their distance, Text lines "i<TAB>j<TAB>dist") lands
// under outPrefix.
func MapReduceSelfJoin(fs *dfs.FS, input, workPrefix string, o Options, reducers, parallelism int) (string, []*mapreduce.Metrics, error) {
	o.fillDefaults()
	if reducers <= 0 {
		reducers = 4
	}

	kernelOut := workPrefix + "/ed-kernel"
	m1, err := mapreduce.Run(mapreduce.Job{
		Name:        "ed-kernel",
		FS:          fs,
		Inputs:      []string{input},
		InputFormat: mapreduce.Text,
		Output:      kernelOut,
		Mapper:      &edMapper{o: o},
		Reducer:     &edReducer{o: o},
		NumReducers: reducers,
		Parallelism: parallelism,
	})
	if err != nil {
		return "", nil, err
	}

	out := workPrefix + "/ed-out"
	m2, err := mapreduce.Run(mapreduce.Job{
		Name:         "ed-dedup",
		FS:           fs,
		Inputs:       []string{kernelOut + "/"},
		InputFormat:  mapreduce.Pairs,
		Output:       out,
		OutputFormat: mapreduce.Text,
		Mapper:       mapreduce.IdentityMapper,
		Reducer: mapreduce.ReduceFunc(func(_ *mapreduce.Context, _ []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
			v, ok := values.Next()
			if !ok {
				return nil
			}
			return out.Emit(nil, v)
		}),
		NumReducers: reducers,
		Parallelism: parallelism,
	})
	if err != nil {
		return "", nil, err
	}
	return out, []*mapreduce.Metrics{m1, m2}, nil
}

// edMapper emits ("gram", id‖string) for each prefix gram. A short
// string — at most K·q grams, so length ≤ (K+1)·q − 1 — can match a
// string it shares no prefix gram with, so every string that can be
// within K of one (length ≤ (K+1)·q − 1 + K) also goes to one shared
// bucket, whose reducer checks all of them against each other.
type edMapper struct {
	o Options
}

const shortKey = "\x01short"

func (m *edMapper) Map(_ *mapreduce.Context, _, value []byte, out mapreduce.Emitter) error {
	id, s, err := parseIDLine(string(value))
	if err != nil {
		return err
	}
	val := encodeIDString(id, s)
	g := grams(s, m.o.Q)
	if len([]rune(s)) <= (m.o.K+1)*m.o.Q-1+m.o.K {
		if err := out.Emit([]byte(shortKey), val); err != nil {
			return err
		}
	}
	for _, gram := range g[:prefixLen(len(g), m.o)] {
		if err := out.Emit([]byte(gram), val); err != nil {
			return err
		}
	}
	return nil
}

// edReducer cross-pairs a gram group with the count filter and banded
// verification.
type edReducer struct {
	o Options
}

func (r *edReducer) Reduce(_ *mapreduce.Context, _ []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	type entry struct {
		id uint64
		s  string
		g  []string
	}
	var items []entry
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		id, s, err := decodeIDString(v)
		if err != nil {
			return err
		}
		items = append(items, entry{id: id, s: s, g: grams(s, r.o.Q)})
	}
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			x, y := items[i], items[j]
			if x.id == y.id {
				continue
			}
			lx, ly := len([]rune(x.s)), len([]rune(y.s))
			if lx-ly > r.o.K || ly-lx > r.o.K {
				continue
			}
			if !countFilterOK(x.g, y.g, r.o) {
				continue
			}
			if !WithinK(x.s, y.s, r.o.K) {
				continue
			}
			a, b := x.id, y.id
			if a > b {
				a, b = b, a
			}
			d := Distance(x.s, y.s)
			key := binary.BigEndian.AppendUint64(nil, a)
			key = binary.BigEndian.AppendUint64(key, b)
			line := fmt.Sprintf("%d\t%d\t%d", a, b, d)
			if err := out.Emit(key, []byte(line)); err != nil {
				return err
			}
		}
	}
	return nil
}

func parseIDLine(line string) (uint64, string, error) {
	for i := 0; i < len(line); i++ {
		if line[i] == '\t' {
			id, err := strconv.ParseUint(line[:i], 10, 64)
			if err != nil {
				return 0, "", fmt.Errorf("editdist: bad id in %q: %v", line, err)
			}
			return id, line[i+1:], nil
		}
	}
	return 0, "", fmt.Errorf("editdist: malformed line %q", line)
}

func encodeIDString(id uint64, s string) []byte {
	buf := binary.AppendUvarint(nil, id)
	return append(buf, s...)
}

func decodeIDString(b []byte) (uint64, string, error) {
	id, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, "", fmt.Errorf("editdist: corrupt value")
	}
	return id, string(b[n:]), nil
}

// sortPairsOutput parses and orders the dedup job's text output (a test
// and tooling helper).
func SortOutput(lines []string) []Pair {
	var out []Pair
	for _, l := range lines {
		if l == "" {
			continue
		}
		var i, j, d int
		if _, err := fmt.Sscanf(l, "%d\t%d\t%d", &i, &j, &d); err == nil {
			out = append(out, Pair{I: i, J: j, Dist: d})
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
