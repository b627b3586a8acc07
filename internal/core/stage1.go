package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"fuzzyjoin/internal/keys"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/tokenize"
)

// Stage 1 — token ordering (§3.1). Both algorithms scan the records and
// produce the join-attribute tokens ordered by increasing frequency, one
// token per line, consumed by Stage 2 as a side file.

// tokenCountMapper emits (token, 1) for every join-attribute token of
// every record.
type tokenCountMapper struct {
	cfg *Config
	recordScratch
}

// countOne is the uvarint count every token occurrence carries.
var countOne = binary.AppendUvarint(nil, 1)

// NewTaskInstance gives each map task its own record scratch.
func (m *tokenCountMapper) NewTaskInstance() any { return &tokenCountMapper{cfg: m.cfg} }

func (m *tokenCountMapper) Map(ctx *mapreduce.Context, _, value []byte, out mapreduce.Emitter) error {
	if _, err := m.readTokens(m.cfg, value); err != nil {
		return err
	}
	for i := 0; i < m.toks.Len(); i++ {
		if err := out.Emit(m.toks.Token(i), countOne); err != nil {
			return err
		}
	}
	ctx.Count("stage1.records", 1)
	return nil
}

// sumCombiner adds up uvarint counts per token; it serves as both the
// combine and the reduce function of the counting job.
var sumCombiner = mapreduce.ReduceFunc(func(_ *mapreduce.Context, key []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	var total uint64
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		n, sz := binary.Uvarint(v)
		if sz <= 0 {
			return fmt.Errorf("core: corrupt token count for %q", key)
		}
		total += n
	}
	return out.Emit(key, binary.AppendUvarint(nil, total))
})

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

// stage1Combiner returns the counting combiner, or nil when the ablation
// disables it.
func stage1Combiner(cfg *Config) mapreduce.Reducer {
	if cfg.NoCombiner {
		return nil
	}
	return sumCombiner
}

// runBTO runs Basic Token Ordering: count job + single-reducer sort job.
func runBTO(cfg *Config, input string, work string) (tokenFile string, ms []*mapreduce.Metrics, err error) {
	countOut := work + "/s1-count"
	job, err := coreJob(cfg, progSpec{Kind: "s1-bto-count"})
	if err != nil {
		return "", nil, err
	}
	job.Name = "s1-bto-count"
	job.Inputs = []string{input}
	job.InputFormat = mapreduce.Text
	job.Output = countOut
	m1, err := mapreduce.RunContext(cfg.context(), job)
	if err != nil {
		return "", nil, err
	}
	sortOut := work + "/s1"
	job, err = coreJob(cfg, progSpec{Kind: "s1-bto-sort"})
	if err != nil {
		return "", nil, err
	}
	job.Name = "s1-bto-sort"
	job.Inputs = []string{countOut + "/"}
	job.InputFormat = mapreduce.Pairs
	job.Output = sortOut
	job.OutputFormat = mapreduce.Text
	job.NumReducers = 1 // total order requires exactly one reducer (§3.1.1)
	m2, err := mapreduce.RunContext(cfg.context(), job)
	if err != nil {
		return "", nil, err
	}
	return sortOut + "/part-r-00000", []*mapreduce.Metrics{m1, m2}, nil
}

// optoReducer accumulates total counts per token in memory and emits the
// frequency-ordered token list from its cleanup hook (§3.1.2).
type optoReducer struct {
	counts map[string]uint64
}

// NewTaskInstance gives each reduce task its own count table.
func (r *optoReducer) NewTaskInstance() any { return &optoReducer{} }

func (r *optoReducer) Setup(_ *mapreduce.Context) error {
	r.counts = make(map[string]uint64)
	return nil
}

func (r *optoReducer) Reduce(ctx *mapreduce.Context, key []byte, values *mapreduce.Values, _ mapreduce.Emitter) error {
	var total uint64
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		n, sz := binary.Uvarint(v)
		if sz <= 0 {
			return fmt.Errorf("core: corrupt token count for %q", key)
		}
		total += n
	}
	// Charge the in-memory token table: the token bytes plus map entry
	// overhead. OPTO's premise is that the token list is much smaller
	// than the data (§3.1.2); the budget check keeps it honest.
	if err := ctx.Memory.Alloc(int64(len(key)) + 16); err != nil {
		return err
	}
	r.counts[string(key)] += total
	return nil
}

func (r *optoReducer) Cleanup(_ *mapreduce.Context, out mapreduce.Emitter) error {
	toks := make([]string, 0, len(r.counts))
	for t := range r.counts {
		toks = append(toks, t)
	}
	sort.Slice(toks, func(i, j int) bool {
		if r.counts[toks[i]] != r.counts[toks[j]] {
			return r.counts[toks[i]] < r.counts[toks[j]]
		}
		return toks[i] < toks[j]
	})
	for _, t := range toks {
		if err := out.Emit(nil, []byte(t)); err != nil {
			return err
		}
	}
	return nil
}

// runOPTO runs One-Phase Token Ordering: a single job with one reducer
// that sorts in memory.
func runOPTO(cfg *Config, input string, work string) (tokenFile string, ms []*mapreduce.Metrics, err error) {
	out := work + "/s1"
	job, err := coreJob(cfg, progSpec{Kind: "s1-opto"})
	if err != nil {
		return "", nil, err
	}
	job.Name = "s1-opto"
	job.Inputs = []string{input}
	job.InputFormat = mapreduce.Text
	job.Output = out
	job.OutputFormat = mapreduce.Text
	job.NumReducers = 1
	m, err := mapreduce.RunContext(cfg.context(), job)
	if err != nil {
		return "", nil, err
	}
	return out + "/part-r-00000", []*mapreduce.Metrics{m}, nil
}

// runStage1 dispatches on the configured algorithm. For R-S joins,
// input is the smaller relation (§4 Stage 1).
func runStage1(cfg *Config, input, work string) (string, []*mapreduce.Metrics, error) {
	switch cfg.TokenOrder {
	case OPTO:
		return runOPTO(cfg, input, work)
	default:
		return runBTO(cfg, input, work)
	}
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
