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
// engine as one job, shaped like the paper's Stage 2: the mapper routes
// each string by its K·q+1 prefix grams, and each reducer verifies the
// candidates of its groups and emits a pair only from the one group that
// owns it (edReducer), so no pair is written twice.
//
// Input is a Text-format DFS file of "id<TAB>string" lines; the result
// (Text lines "i<TAB>j<TAB>dist") lands under the returned prefix.
func MapReduceSelfJoin(fs *dfs.FS, input, workPrefix string, o Options, reducers, parallelism int) (string, *mapreduce.Metrics, error) {
	o.fillDefaults()
	if reducers <= 0 {
		reducers = 4
	}
	out := workPrefix + "/ed-out"
	m, err := mapreduce.Run(mapreduce.Job{
		Name:         "ed-kernel",
		FS:           fs,
		Inputs:       []string{input},
		InputFormat:  mapreduce.Text,
		Output:       out,
		OutputFormat: mapreduce.Text,
		Mapper:       &edMapper{o: o},
		Reducer:      &edReducer{o: o},
		NumReducers:  reducers,
		Parallelism:  parallelism,
	})
	if err != nil {
		return "", nil, err
	}
	return out, m, nil
}

// edMapper emits ("gram", id‖string) for each prefix gram. A short
// string — at most K·q grams, so length ≤ (K+1)·q − 1 — can match a
// string it shares no prefix gram with, so every string that can be
// within K of one (inShortBucket) also goes to one shared bucket, whose
// reducer checks all of them against each other.
type edMapper struct {
	o Options
}

const shortKey = "\x01short"

// inShortBucket reports whether s goes to the shared short-string bucket:
// rune length ≤ (K+1)·q − 1 + K.
func inShortBucket(s string, o Options) bool {
	return len([]rune(s)) <= (o.K+1)*o.Q-1+o.K
}

func (m *edMapper) Map(_ *mapreduce.Context, _, value []byte, out mapreduce.Emitter) error {
	id, s, err := parseIDLine(string(value))
	if err != nil {
		return err
	}
	val := encodeIDString(id, s)
	g := grams(s, m.o.Q)
	if inShortBucket(s, m.o) {
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

// edReducer cross-pairs a group with the count filter and banded
// verification. A pair meets in the short bucket when both strings are in
// it, and in every gram group its two prefixes share; the owner rule
// keeps one: the short bucket emits every pair it verifies, and a gram
// group emits a pair only when its gram is the first gram the two
// prefixes share and the strings are not both short-bucket members. A
// pair within K with a string outside the bucket has more than K·q grams
// on both sides, so its prefixes share a gram and it has an owner.
type edReducer struct {
	o Options
}

func (r *edReducer) Reduce(_ *mapreduce.Context, key []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	type entry struct {
		id    uint64
		s     string
		g     []string
		below []string // prefix grams ordered before the group's gram
		short bool
	}
	group := string(key)
	var items []entry
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		id, s, err := decodeIDString(v)
		if err != nil {
			return err
		}
		g := grams(s, r.o.Q)
		p := g[:prefixLen(len(g), r.o)]
		items = append(items, entry{id, s, g, p[:sort.SearchStrings(p, group)], inShortBucket(s, r.o)})
	}
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			x, y := items[i], items[j]
			if x.id == y.id || group != shortKey && (x.short && y.short || overlap(x.below, y.below) > 0) {
				continue
			}
			lx, ly := len([]rune(x.s)), len([]rune(y.s))
			if lx-ly > r.o.K || ly-lx > r.o.K || !countFilterOK(x.g, y.g, r.o) || !WithinK(x.s, y.s, r.o.K) {
				continue
			}
			a, b := x.id, y.id
			if a > b {
				a, b = b, a
			}
			line := fmt.Sprintf("%d\t%d\t%d", a, b, Distance(x.s, y.s))
			if err := out.Emit(nil, []byte(line)); err != nil {
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

// SortOutput parses and orders MapReduceSelfJoin's text output (a test
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
