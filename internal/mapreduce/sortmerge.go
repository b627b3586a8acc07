package mapreduce

import (
	"bytes"
	"encoding/binary"
)

// This file holds the reduce side of the shuffle: the engine's sort
// order and the k-way merge of the map tasks' sorted segments. Map tasks
// hand reducers *encoded* segments, so PartitionBytes is the actual wire
// size of the shuffle.
//
// The shuffle datapath is streaming (§4.8 of DESIGN.md): sorts compare a
// cached integer prefix of each key before touching key bytes, merges run
// through a loser tree that decodes encoded runs lazily and yields one
// pair at a time. The map-side buffer is in mapbuf.go; the materialized
// reference it and the streaming merge are tested against is in
// reference_test.go.

// sortPrefix maps a key to its first eight bytes read as a big-endian
// integer (shorter keys are zero-padded on the right). Whenever two keys'
// prefixes differ, they order the keys exactly as bytes.Compare would, so
// sorts and merges cache it on every pair and read key bytes only on a
// prefix tie.
func sortPrefix(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var v uint64
	for i := 0; i < len(key); i++ {
		v |= uint64(key[i]) << (56 - 8*i)
	}
	return v
}

// comparePairs is the engine's one total order over pairs whose prefix
// is filled: the cached sort prefix, then key bytes, then value bytes.
// The value tie-break makes every sort and merge deterministic; BRJ phase
// 1 relies on it to see a record before the RID pairs it joins.
func comparePairs(a, b Pair) int {
	if a.prefix != b.prefix {
		if a.prefix < b.prefix {
			return -1
		}
		return 1
	}
	if c := bytes.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return bytes.Compare(a.Value, b.Value)
}

// runCursor streams one sorted, encoded run during a merge, decoding
// lazily so the merge never materializes a whole run.
type runCursor struct {
	data []byte // undecoded remainder
	cur  Pair   // head pair, valid after advance returns true
	done bool
}

func cursorForEncoded(data []byte) *runCursor { return &runCursor{data: data} }

// advance steps the cursor to its next pair. Decoded key/value slices
// alias the run's backing storage, which outlives the merge.
func (c *runCursor) advance() (bool, error) {
	if len(c.data) == 0 {
		c.done = true
		return false, nil
	}
	k, v, rest, err := decodeOnePair(c.data)
	if err != nil {
		c.done = true
		return false, err
	}
	c.cur = Pair{Key: k, Value: v, prefix: sortPrefix(k)}
	c.data = rest
	return true, nil
}

// mergeStream is a streaming k-way merge over sorted run cursors, backed
// by a loser tree: each next() costs one root-to-leaf replay of ⌈log k⌉
// prefix-first comparisons instead of a heap's sift with full key
// compares. Ties across runs are broken by cursor index, which keeps the
// output deterministic; pairs equal under the engine's total order are
// byte-identical anyway, so the sequence matches the materialized
// mergeRuns exactly.
type mergeStream struct {
	cursors []*runCursor
	tree    []int // tree[0] = current winner; tree[1:] = per-node losers
}

// newMergeStream primes every cursor and builds the loser tree. Cursors
// that are empty from the start are dropped.
func newMergeStream(cursors []*runCursor) (*mergeStream, error) {
	live := make([]*runCursor, 0, len(cursors))
	for _, c := range cursors {
		ok, err := c.advance()
		if err != nil {
			return nil, err
		}
		if ok {
			live = append(live, c)
		}
	}
	m := &mergeStream{cursors: live}
	k := len(live)
	if k < 2 {
		return m, nil
	}
	m.tree = make([]int, k)
	for i := range m.tree {
		m.tree[i] = -1
	}
	// Replay each contestant up from its leaf: losers park at internal
	// nodes, exactly one contestant reaches the root.
	for i := k - 1; i >= 0; i-- {
		w := i
		for node := (i + k) / 2; node > 0; node /= 2 {
			if m.tree[node] == -1 {
				m.tree[node] = w
				w = -1
				break
			}
			if m.beats(m.tree[node], w) {
				w, m.tree[node] = m.tree[node], w
			}
		}
		if w >= 0 {
			m.tree[0] = w
		}
	}
	return m, nil
}

// beats reports whether contestant a's head pair precedes contestant
// b's. Exhausted cursors lose to everything; ties break by cursor index.
func (m *mergeStream) beats(a, b int) bool {
	ca, cb := m.cursors[a], m.cursors[b]
	if ca.done {
		return false
	}
	if cb.done {
		return true
	}
	if c := comparePairs(ca.cur, cb.cur); c != 0 {
		return c < 0
	}
	return a < b
}

// next yields the next merged pair. The returned Key/Value alias the run
// storage and stay valid for the lifetime of the task.
func (m *mergeStream) next() (Pair, bool, error) {
	k := len(m.cursors)
	if k == 0 {
		return Pair{}, false, nil
	}
	if k == 1 {
		c := m.cursors[0]
		if c.done {
			return Pair{}, false, nil
		}
		p := c.cur
		if _, err := c.advance(); err != nil {
			return Pair{}, false, err
		}
		return p, true, nil
	}
	w := m.tree[0]
	cw := m.cursors[w]
	if cw.done {
		return Pair{}, false, nil
	}
	p := cw.cur
	if _, err := cw.advance(); err != nil {
		return Pair{}, false, err
	}
	for node := (w + k) / 2; node > 0; node /= 2 {
		if m.beats(m.tree[node], w) {
			w, m.tree[node] = m.tree[node], w
		}
	}
	m.tree[0] = w
	return p, true, nil
}

// groupStream slices a merge stream into key groups — runs of pairs
// whose keys agree on their first prefix bytes (Job.GroupPrefix) —
// buffering only the active group. The returned slice is reused: it is
// valid until the next call, matching the Values contract.
type groupStream struct {
	m       *mergeStream
	prefix  int
	buf     []Pair
	pending Pair
	started bool
	eof     bool
}

// next returns the next key group, or nil at end of stream.
func (g *groupStream) next() ([]Pair, error) {
	if !g.started {
		g.started = true
		p, ok, err := g.m.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			g.eof = true
		}
		g.pending = p
	}
	if g.eof {
		return nil, nil
	}
	g.buf = append(g.buf[:0], g.pending)
	for {
		p, ok, err := g.m.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			g.eof = true
			return g.buf, nil
		}
		if !sameGroup(g.buf[0].Key, p.Key, g.prefix) {
			g.pending = p
			return g.buf, nil
		}
		g.buf = append(g.buf, p)
	}
}
