package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"sync"

	"fuzzyjoin/internal/keys"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/tokenize"
)

// Stage 1 — token ordering (§3.1). Both algorithms scan the records and
// produce the join-attribute tokens ordered by increasing frequency, one
// token per line, consumed by Stage 2 as a side file.

// tokenCountMapper counts its map task's join-attribute tokens and emits
// one (token, count) per distinct token from Cleanup: in-mapper
// combining (Lin & Dyer 2010, §3.1), a combiner's scope — one map task —
// without sorting a pair per occurrence first. When the task's memory
// budget cannot take another token, the table is emitted and emptied
// (Hadoop's flush-when-full); the reducer adds partial counts up.
type tokenCountMapper struct {
	cfg *Config
	recordScratch
	tab     *tokenTable
	records int64 // the task's stage1.records, counted from Cleanup
}

// NewTaskInstance gives each map task its own record scratch.
func (m *tokenCountMapper) NewTaskInstance() any { return &tokenCountMapper{cfg: m.cfg} }

func (m *tokenCountMapper) Setup(_ *mapreduce.Context) error {
	if m.tab = m.cfg.tables.Get(); m.tab.slots == nil {
		m.tab.slots = make([]tokenSlot, 1<<10)
	}
	return nil
}

func (m *tokenCountMapper) Map(ctx *mapreduce.Context, _, value []byte, out mapreduce.Emitter) error {
	if _, err := m.readTokens(m.cfg, value); err != nil {
		return err
	}
	for i := 0; i < m.toks.Len(); i++ {
		if err := m.tab.count(ctx.Memory, m.toks.Token(i), out); err != nil {
			return err
		}
	}
	m.records++
	return nil
}

func (m *tokenCountMapper) Cleanup(ctx *mapreduce.Context, out mapreduce.Emitter) error {
	if m.records > 0 {
		ctx.Count("stage1.records", m.records)
	}
	err := m.tab.flush(ctx.Memory, out)
	m.cfg.tables.Put(m.tab)
	m.tab = nil
	return err
}

// tokenTable is one map task's token counts: an open-addressing table,
// linear probing, at most half full, over the distinct tokens, whose
// bytes sit in one arena (one split's vocabulary: far from the 4 GiB its
// offsets address). Tables are recycled across map tasks through the
// pipeline's Config.tables, as the engine's map buffers are; only empty
// ones go back.
type tokenTable struct {
	slots   []tokenSlot // a power of two long; count 0 marks an empty slot
	arena   []byte
	used    int
	charged int64  // what the table holds of the task's memory budget
	val     []byte // the count being emitted, uvarint-encoded
}

type tokenSlot struct {
	off, n uint32
	count  uint64
}

// tokenSlotBytes is what a distinct token costs the budget besides its
// bytes: two 16-byte slots, the table being at most half full.
const tokenSlotBytes = 32

var tokenSeed = maphash.MakeSeed()

// count adds one occurrence of tok. A new token is charged to mem; when
// the charge would pass the budget, the table is emitted and emptied
// first, and a token even an empty table cannot take is emitted alone.
func (t *tokenTable) count(mem *mapreduce.Memory, tok []byte, out mapreduce.Emitter) error {
	s := t.find(tok)
	if s.count > 0 {
		s.count++
		return nil
	}
	cost := int64(len(tok)) + tokenSlotBytes
	if mem.Limit() > 0 && mem.Used()+cost > mem.Limit() {
		if err := t.flush(mem, out); err != nil {
			return err
		}
		if mem.Used()+cost > mem.Limit() {
			t.val = binary.AppendUvarint(t.val[:0], 1)
			return out.Emit(tok, t.val)
		}
		s = t.find(tok)
	}
	if err := mem.Alloc(cost); err != nil {
		return err
	}
	t.charged += cost
	*s = tokenSlot{off: uint32(len(t.arena)), n: uint32(len(tok)), count: 1}
	t.arena = append(t.arena, tok...)
	if t.used++; 2*t.used > len(t.slots) {
		old := t.slots
		t.slots = make([]tokenSlot, 2*len(old))
		for _, o := range old {
			if o.count > 0 {
				*t.find(t.arena[o.off : o.off+o.n]) = o
			}
		}
	}
	return nil
}

// find returns tok's slot, or the empty slot it would take.
func (t *tokenTable) find(tok []byte) *tokenSlot {
	mask := len(t.slots) - 1
	for i := int(maphash.Bytes(tokenSeed, tok)) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.count == 0 || bytes.Equal(t.arena[s.off:s.off+s.n], tok) {
			return s
		}
	}
}

// flush emits one (token, count) per table entry, returns the table's
// charge to mem and empties it.
func (t *tokenTable) flush(mem *mapreduce.Memory, out mapreduce.Emitter) error {
	var err error
	for _, s := range t.slots {
		if s.count > 0 && err == nil {
			t.val = binary.AppendUvarint(t.val[:0], s.count)
			err = out.Emit(t.arena[s.off:s.off+s.n], t.val)
		}
	}
	mem.Free(t.charged)
	clear(t.slots)
	t.arena, t.used, t.charged = t.arena[:0], 0, 0
	return err
}

// sumReducer adds up the uvarint counts of each token: the reduce
// function of the counting job.
type sumReducer struct {
	val []byte
}

// NewTaskInstance gives each reduce task its own encoding scratch.
func (r *sumReducer) NewTaskInstance() any { return &sumReducer{} }

func (r *sumReducer) Reduce(_ *mapreduce.Context, key []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	total, err := sumCounts(key, values)
	if err != nil {
		return err
	}
	r.val = binary.AppendUvarint(r.val[:0], total)
	return out.Emit(key, r.val)
}

// sumCounts adds up one token's uvarint counts.
func sumCounts(key []byte, values *mapreduce.Values) (uint64, error) {
	var total uint64
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		n, sz := binary.Uvarint(v)
		if sz <= 0 {
			return 0, fmt.Errorf("core: corrupt token count for %q", key)
		}
		total += n
	}
	return total, nil
}

// countSwapMapper turns (token, count) into (count‖token, token) so the
// single sorting reducer receives tokens in increasing frequency order,
// ties broken by token text for determinism.
var countSwapMapper = mapreduce.MapFunc(func(_ *mapreduce.Context, key, value []byte, out mapreduce.Emitter) error {
	n, sz := binary.Uvarint(value)
	if sz <= 0 {
		return fmt.Errorf("core: corrupt token count for %q", key)
	}
	k := keys.AppendUint64(nil, n)
	k = append(k, key...)
	return out.Emit(k, key)
})

// emitTokenReducer writes each token as one output line.
var emitTokenReducer = mapreduce.ReduceFunc(func(_ *mapreduce.Context, _ []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		if err := out.Emit(nil, v); err != nil {
			return err
		}
	}
	return nil
})

// optoReducer accumulates total counts per token in memory and emits the
// frequency-ordered token list from its cleanup hook (§3.1.2). Each token
// is one reduce group, so the counts are one list, sorted once.
type optoReducer struct {
	counts []tokenCount
	line   []byte
}

type tokenCount struct {
	tok string
	n   uint64
}

// NewTaskInstance gives each reduce task its own count list.
func (r *optoReducer) NewTaskInstance() any { return &optoReducer{} }

func (r *optoReducer) Reduce(ctx *mapreduce.Context, key []byte, values *mapreduce.Values, _ mapreduce.Emitter) error {
	total, err := sumCounts(key, values)
	if err != nil {
		return err
	}
	// Charge the in-memory token table: the token bytes plus entry
	// overhead. OPTO's premise is that the token list is much smaller
	// than the data (§3.1.2); the budget check keeps it honest.
	if err := ctx.Memory.Alloc(int64(len(key)) + 16); err != nil {
		return err
	}
	r.counts = append(r.counts, tokenCount{string(key), total})
	return nil
}

func (r *optoReducer) Cleanup(_ *mapreduce.Context, out mapreduce.Emitter) error {
	slices.SortFunc(r.counts, func(a, b tokenCount) int {
		if c := cmp.Compare(a.n, b.n); c != 0 {
			return c
		}
		return strings.Compare(a.tok, b.tok)
	})
	for _, c := range r.counts {
		r.line = append(r.line[:0], c.tok...)
		if err := out.Emit(nil, r.line); err != nil {
			return err
		}
	}
	return nil
}

// runStage1 runs the configured algorithm's jobs and returns the token
// file. BTO counts, then sorts the counts in a single reducer, as a total
// order needs (§3.1.1); OPTO counts and sorts in one reducer's memory
// (§3.1.2). For R-S joins, input is the smaller relation (§4 Stage 1).
func runStage1(cfg *Config, input, work string) (string, []*mapreduce.Metrics, error) {
	kinds := []string{"s1-bto-count", "s1-bto-sort"}
	if cfg.TokenOrder == OPTO {
		kinds = []string{"s1-opto"}
	}
	var ms []*mapreduce.Metrics
	in, format := input, mapreduce.Text
	for i, kind := range kinds {
		job, err := coreJob(cfg, progSpec{Kind: kind})
		if err != nil {
			return "", nil, err
		}
		job.Name, job.Inputs, job.InputFormat, job.Output = kind, []string{in}, format, work+"/s1-count"
		if i == len(kinds)-1 {
			job.Output, job.OutputFormat, job.NumReducers = work+"/s1", mapreduce.Text, 1
		}
		m, err := mapreduce.RunContext(cfg.context(), job)
		if err != nil {
			return "", nil, err
		}
		ms = append(ms, m)
		in, format = job.Output+"/", mapreduce.Pairs
	}
	return work + "/s1/part-r-00000", ms, nil
}

// orderCache retains the most recently parsed token order. Every task
// of a job — and every task a distrib worker runs for it, whose storage
// proxy caches the side file — receives the same Stage 1 bytes, so the
// parsed, immutable Order is shared by content: equal bytes, same Order.
// One entry is enough; jobs over different token files running at once
// merely parse more often.
var orderCache struct {
	sync.Mutex
	src   string
	order *tokenize.Order
}

// loadTokenOrder returns the token order a Stage 1 output file holds,
// parsing it once per job per process. Sharing saves the parse, not the
// budget: callers charge the file to their own task's memory as before.
func loadTokenOrder(data []byte) *tokenize.Order {
	c := &orderCache
	c.Lock()
	defer c.Unlock()
	if c.order == nil || string(data) != c.src {
		c.src = string(data)
		c.order = tokenize.ParseOrder(c.src)
	}
	return c.order
}
