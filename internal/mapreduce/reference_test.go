package mapreduce

import (
	"container/heap"
	"encoding/binary"
	"slices"
)

// The materialized reference the map buffer and the streaming merge are
// tested against: sort a []Pair, encode it as one run, decode a run back,
// and k-way merge sorted runs with a heap.

// sortPairs fills every pair's sort prefix and orders the pairs by
// comparePairs.
func sortPairs(pairs []Pair) {
	for i := range pairs {
		pairs[i].prefix = sortPrefix(pairs[i].Key)
	}
	slices.SortFunc(pairs, comparePairs)
}

// encodeRun serializes a sorted pair run in Pairs format.
func encodeRun(pairs []Pair) []byte {
	var n int
	for _, p := range pairs {
		n += len(p.Key) + len(p.Value) + 2*binary.MaxVarintLen32
	}
	dst := make([]byte, 0, n)
	for _, p := range pairs {
		dst = appendPair(dst, p.Key, p.Value)
	}
	return dst
}

// countEncodedPairs counts the records in an encoded run (for pre-sizing
// decode output). Malformed tails yield a short count; the decode proper
// still reports the error.
func countEncodedPairs(data []byte) int {
	n := 0
	for len(data) > 0 {
		kl, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < kl {
			return n
		}
		data = data[sz+int(kl):]
		vl, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < vl {
			return n
		}
		data = data[sz+int(vl):]
		n++
	}
	return n
}

// decodeRun parses an encoded run back into pairs. The slices alias data.
func decodeRun(data []byte) ([]Pair, error) {
	out := make([]Pair, 0, countEncodedPairs(data))
	err := decodePairs(data, func(k, v []byte) error {
		out = append(out, Pair{Key: k, Value: v})
		return nil
	})
	return out, err
}

// runHeap is a k-way merge heap over sorted runs (the materialized
// reference merge; production paths use mergeStream).
type runHeap struct {
	runs [][]Pair // each non-empty, sorted by sortPairs
}

func (h *runHeap) Len() int { return len(h.runs) }
func (h *runHeap) Less(i, j int) bool {
	return comparePairs(h.runs[i][0], h.runs[j][0]) < 0
}
func (h *runHeap) Swap(i, j int) { h.runs[i], h.runs[j] = h.runs[j], h.runs[i] }
func (h *runHeap) Push(x any)    { h.runs = append(h.runs, x.([]Pair)) }
func (h *runHeap) Pop() any      { r := h.runs[len(h.runs)-1]; h.runs = h.runs[:len(h.runs)-1]; return r }

// mergeRuns k-way merges sorted runs into one sorted slice. It is the
// semantics oracle the streaming merge is property-tested against.
func mergeRuns(runs [][]Pair) []Pair {
	nonEmpty := runs[:0]
	total := 0
	for _, r := range runs {
		if len(r) > 0 {
			nonEmpty = append(nonEmpty, r)
			total += len(r)
		}
	}
	switch len(nonEmpty) {
	case 0:
		return nil
	case 1:
		return nonEmpty[0]
	}
	h := &runHeap{runs: nonEmpty}
	heap.Init(h)
	out := make([]Pair, 0, total)
	for h.Len() > 0 {
		r := h.runs[0]
		out = append(out, r[0])
		if len(r) > 1 {
			h.runs[0] = r[1:]
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return out
}
