package core

import (
	"encoding/binary"

	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/tokenize"
)

// Emit-once ownership (DESIGN §4.4). Prefix routing replicates a τ-pair
// to every reduce group one of its shared prefix tokens routes to. Stage 2
// output is nevertheless a set: of all the reduce groups a pair meets in,
// exactly one owns and emits it — the group of the pair's minimal common
// prefix token w (every kernel finds w anyway: the first prefix match).
// The mapper sent both records there on account of w.

// tokenGroups is the rank → routing group arithmetic of one Stage 2 job.
// The mapper routes by it and the reducers' owner rule reads it back, so
// the two sides cannot drift apart.
type tokenGroups struct {
	// order is the global token order (mappers only).
	order     *tokenize.Order
	numGroups int
	grouped   bool
}

// loadTokenGroups derives a task's tokenGroups from the Stage 1 side
// file. A mapper keeps the token order; a reducer (keepOrder false) needs
// the vocabulary size alone, and only when grouped routing has no explicit
// group count.
func loadTokenGroups(ctx *mapreduce.Context, cfg *Config, tokenFile string, keepOrder bool) (tokenGroups, error) {
	t := tokenGroups{grouped: cfg.Routing == GroupedTokens}
	vocab := 0
	if keepOrder || (t.grouped && cfg.NumGroups < 1) {
		data, err := ctx.SideFile(tokenFile)
		if err != nil {
			return tokenGroups{}, err
		}
		// The token list is assumed to fit in task memory (§3.2); the
		// budget check keeps the assumption honest.
		if err := ctx.Memory.Alloc(int64(len(data))); err != nil {
			return tokenGroups{}, err
		}
		order := loadTokenOrder(data)
		vocab = order.Len()
		if keepOrder {
			t.order = order
		} else {
			ctx.Memory.Free(int64(len(data))) // only the count is kept; the order is the job's
		}
	}
	// With no explicit group count, grouped routing uses one group per
	// distinct token.
	t.numGroups = max(vocab, 1)
	if t.grouped && cfg.NumGroups > 0 {
		t.numGroups = cfg.NumGroups
	}
	return t, nil
}

// group maps a token rank to its routing group: the rank itself for
// individual-token routing, or round-robin over NumGroups for grouped
// routing (round-robin by frequency rank balances the sum of token
// frequencies across groups, §3.2).
func (t *tokenGroups) group(rank uint32) uint32 {
	if t.grouped {
		return rank % uint32(t.numGroups)
	}
	return rank
}

// owner is a Stage 2 reduce task's half of the rule and the one way its
// pairs leave: which pairs of the current reduce group are this group's to
// emit, and the emission itself. Every Stage 2 reducer embeds one; Setup
// loads it once per task and begin points it at each group.
type owner struct {
	cfg       *Config
	tokenFile string
	// self marks a self-join: its pairs leave normalized to A < B.
	self bool
	tokenGroups
	// curGroup identifies the current reduce group, out is where its pairs
	// go and err the first error writing one.
	curGroup uint32
	out      mapreduce.Emitter
	err      error
	// token and pair are ownsToken and emit bound once per task: the
	// kernels' owner hook and result callback.
	token func(w uint32) bool
	pair  func(records.RIDPair)
	// key and val are reused for every pair: a reduce emitter copies what
	// it is handed before it returns (fileWriter.write).
	key, val []byte
	kernelCounts
}

func (o *owner) Setup(ctx *mapreduce.Context) (err error) {
	o.token, o.pair = o.ownsToken, o.emit
	o.tokenGroups, err = loadTokenGroups(ctx, o.cfg, o.tokenFile, false)
	return err
}

// begin reads the reduce group's identity off its key: [group u32].
func (o *owner) begin(key []byte, out mapreduce.Emitter) {
	o.curGroup, o.out, o.err = binary.BigEndian.Uint32(key), out, nil
}

// ownsToken is the rule: w routes to this group.
func (o *owner) ownsToken(w uint32) bool {
	return o.group(w) == o.curGroup
}

// emit writes a verified pair whose minimal common prefix token this group
// owns in the Stage 2 output format — key = [A u64][B u64], value = the
// RIDPair binary encoding.
func (o *owner) emit(p records.RIDPair) {
	if o.err != nil {
		return
	}
	// A kernel that probes a self-join's later item against earlier ones
	// reports (earlier, later).
	if o.self && p.A > p.B {
		p.A, p.B = p.B, p.A
	}
	o.key = appendPairGroupKey(o.key[:0], p)
	o.val = p.AppendBinary(o.val[:0])
	o.err = o.out.Emit(o.key, o.val)
}
