// Package ssjserve is the online similarity-join service: the paper's
// batch pipeline split into an offline index-build phase and a cheap
// online lookup phase (the V-SMART-Join decomposition), served from one
// long-lived process.
//
// The heart is Index, the internal/ppjoin streaming index generalized to
// be persistent and concurrent: instead of consuming one length-sorted
// stream and evicting behind it, it keeps every record, shards its
// length-segmented inverted prefix index across the token space (one
// RWMutex per shard, shared-nothing between shards), and answers
// Match(probe) with the PK kernel's filter funnel — prefix, length,
// positional, suffix, exact verification — the same admissible stack as
// Stage 2, so answers equal the brute-force oracle's exactly
// (internal/conformance gates this).
//
// Ingestion is incremental: Add extends the token order in place (new
// tokens are appended past the current tail, which keeps every indexed
// record's ranks valid — any total order is correct for prefix
// filtering, frequency order is only the performance-optimal one) and
// tracks drift; past Options.DriftThreshold the index re-sorts its
// ranks into the Stage-1 BTO order (frequency ascending, token
// ascending), maps every record through that permutation and swaps the
// rebuilt state in atomically. Queries load the state pointer once and
// never block on ingestion or re-ordering.
package ssjserve

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
	"fuzzyjoin/internal/tokenize"
)

// Options configures the service and its index.
type Options struct {
	// Tokenizer converts join-attribute strings into token sets
	// (default word tokenization, the paper's choice).
	Tokenizer tokenize.Tokenizer
	// JoinFields are the record fields concatenated into the join
	// attribute (default title + authors).
	JoinFields []int
	// Fn is the similarity function; Threshold its τ (default Jaccard
	// at 0.80, the paper's evaluation setting).
	Fn        simfn.Func
	Threshold float64
	// Shards is the number of index shards; the token space is
	// partitioned across them round-robin by rank (interleaved token
	// ranges), one RWMutex each. Default 8.
	Shards int
	// DriftThreshold triggers the lazy re-order: when the records added
	// since the last (re)build exceed this fraction of the corpus at
	// that build, the Stage-1 frequency order is recomputed. Default
	// 0.25. Correctness never depends on it — only probe cost does.
	DriftThreshold float64
	// Workers is the query worker-pool size (default GOMAXPROCS);
	// QueueDepth the admission queue bound (default 4×Workers).
	Workers    int
	QueueDepth int
}

func (o *Options) fillDefaults() error {
	if o.Threshold == 0 {
		o.Threshold = 0.8
	}
	if o.Threshold <= 0 || o.Threshold > 1 {
		return fmt.Errorf("ssjserve: threshold %v out of (0, 1]", o.Threshold)
	}
	if o.Tokenizer == nil {
		o.Tokenizer = tokenize.Word{}
	}
	if len(o.JoinFields) == 0 {
		o.JoinFields = []int{records.FieldTitle, records.FieldAuthors}
	}
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.DriftThreshold <= 0 {
		o.DriftThreshold = 0.25
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	return nil
}

// lenBucketWidth is the length-segment granularity of posting keys: a
// posting list holds only entries whose set length falls in one bucket,
// so a probe touches just the buckets its length filter admits.
const lenBucketWidth = 8

func lenBucket(l int) uint64 { return min(uint64(l)/lenBucketWidth, 0xffff) }

// pkey packs (token rank, length bucket) into one posting key.
func pkey(tok uint32, bucket uint64) uint64 { return uint64(tok)<<16 | bucket }

// pentry is one posting entry: which record, its exact set length
// (checked against the probe's length bounds without loading the record)
// and the token's position in its prefix (for the positional filter).
type pentry struct {
	id     int32
	length int32
	pos    int32
}

// shard is one shared-nothing slice of the inverted prefix index.
type shard struct {
	mu   sync.RWMutex
	post map[uint64][]pentry
}

// irec is one indexed record with its ranks under the current order,
// sorted ascending (rarest first). An irec never changes once logged.
type irec struct {
	rec   records.Record
	ranks []uint32
}

// liveOrder is the token order of one index generation. Between
// re-orders it only ever grows at the tail (new tokens get the next
// ranks), so ranks held by indexed records stay valid; freq counts feed
// the next re-order.
type liveOrder struct {
	mu   sync.RWMutex
	rank map[string]uint32
	toks []string
	freq []int64
}

// appendRanks appends the sorted ranks of b's tokens to dst, dropping
// unknown tokens — the §4 discipline for probe attributes whose tokens
// the dictionary has never seen (they cannot produce candidates; the
// oracle mirrors the drop).
func (lo *liveOrder) appendRanks(dst []uint32, b *tokenize.Buffer) []uint32 {
	n := len(dst)
	lo.mu.RLock()
	for i := 0; i < b.Len(); i++ {
		if r, ok := lo.rank[string(b.Token(i))]; ok {
			dst = append(dst, r)
		}
	}
	lo.mu.RUnlock()
	slices.Sort(dst[n:])
	return dst
}

// intern counts one more record holding b's tokens and returns its
// sorted ranks: a token the order has never seen takes the next rank
// past the tail. Callers hold the ingest lock.
func (lo *liveOrder) intern(b *tokenize.Buffer) []uint32 {
	ranks := make([]uint32, b.Len())
	lo.mu.Lock()
	for i := range ranks {
		r, ok := lo.rank[string(b.Token(i))]
		if !ok {
			r = uint32(len(lo.toks))
			lo.toks = append(lo.toks, string(b.Token(i)))
			lo.rank[lo.toks[r]] = r
			lo.freq = append(lo.freq, 0)
		}
		lo.freq[r]++
		ranks[i] = r
	}
	lo.mu.Unlock()
	slices.Sort(ranks)
	return ranks
}

// istate is one immutable-identity generation of the index: queries load
// the state pointer once and see a consistent (order, records, shards)
// triple even if a re-order swaps the next generation in mid-probe.
type istate struct {
	ord    *liveOrder
	shards []*shard
	// recs is the append-only record log, guarded by recMu.
	recMu       sync.RWMutex
	recs        []irec
	baseRecords int // corpus size at this generation's build
	added       int // records added since, for drift tracking (ingest lock)
}

// records returns the log as it stands; appends never touch entries
// below the returned length, so the caller reads it without the lock.
func (st *istate) records() []irec {
	st.recMu.RLock()
	defer st.recMu.RUnlock()
	return st.recs
}

// Index is the persistent concurrent prefix index. All methods are safe
// for concurrent use: Match never blocks on Add or re-order beyond brief
// per-shard read locks.
type Index struct {
	opts Options
	th   simfn.Threshold // opts.Fn at opts.Threshold, rationalized once
	// ingest serializes Add and re-order; queries never take it. It also
	// guards adding, the scratch Add tokenizes in.
	ingest   sync.Mutex
	adding   probeScratch
	state    atomic.Pointer[istate]
	reorders atomic.Int64
	probes   sync.Pool  // *probeScratch, one per Match in flight
	fmu      sync.Mutex // guards funnel
	funnel   Funnel
}

// NewIndex builds an index over corpus (batch path: every record ranked
// in first-seen token order, then one re-order into the Stage-1 BTO
// order). An empty corpus is fine — the dictionary then grows entirely
// through Add.
func NewIndex(opts Options, corpus []records.Record) (*Index, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	ix := &Index{opts: opts, th: opts.Fn.At(opts.Threshold)}
	ix.probes.New = func() any { return new(probeScratch) }
	ord := &liveOrder{rank: make(map[string]uint32)}
	recs := make([]irec, len(corpus))
	for i, r := range corpus {
		recs[i] = irec{rec: r, ranks: ord.intern(ix.adding.tokens(&ix.opts, r))}
	}
	ix.state.Store(ix.rebuild(ord, recs))
	return ix, nil
}

// rebuild constructs a generation from records ranked under ord. The
// Stage-1 BTO order — tokens by (frequency ascending, token bytes
// ascending), the batch pipeline's sort-job key — permutes ord's ranks,
// which carry their frequencies: no record is tokenized again, its ranks
// are mapped and sorted. The caller holds the ingest lock or owns both.
func (ix *Index) rebuild(ord *liveOrder, recs []irec) *istate {
	n := len(ord.toks)
	byFreq := make([]uint32, n) // old ranks in the new order
	for i := range byFreq {
		byFreq[i] = uint32(i)
	}
	slices.SortFunc(byFreq, func(a, b uint32) int {
		if c := cmp.Compare(ord.freq[a], ord.freq[b]); c != 0 {
			return c
		}
		return strings.Compare(ord.toks[a], ord.toks[b])
	})
	next := &liveOrder{rank: make(map[string]uint32, n), toks: make([]string, n), freq: make([]int64, n)}
	newRank, total := make([]uint32, n), 0
	for r, old := range byFreq {
		newRank[old] = uint32(r)
		total += int(ord.freq[old]) // one per record holding the token
		next.toks[r], next.freq[r] = ord.toks[old], ord.freq[old]
		next.rank[next.toks[r]] = uint32(r)
	}

	// Room in the log for the adds before this generation's own re-order.
	room := int(min(ix.opts.DriftThreshold, 1)*float64(len(recs))) + 1
	st := &istate{ord: next, baseRecords: len(recs), recs: make([]irec, len(recs), len(recs)+room),
		shards: make([]*shard, ix.opts.Shards)}
	for i := range st.shards {
		st.shards[i] = &shard{post: make(map[uint64][]pentry)}
	}
	arena := make([]uint32, 0, total) // every record's ranks, one allocation
	for id, r := range recs {
		start := len(arena)
		for _, old := range r.ranks {
			arena = append(arena, newRank[old])
		}
		ranks := arena[start:len(arena):len(arena)]
		slices.Sort(ranks)
		st.recs[id] = irec{rec: r.rec, ranks: ranks}
		l := len(ranks)
		for i, tok := range ranks[:ix.th.PrefixLength(l)] {
			post, k := st.shards[int(tok)%len(st.shards)].post, pkey(tok, lenBucket(l))
			post[k] = append(post[k], pentry{id: int32(id), length: int32(l), pos: int32(i)})
		}
	}
	return st
}

// Add ingests one record incrementally: no Stage-1 rebuild — unknown
// tokens are appended past the order's tail (any total order is
// admissible), the record and its prefix postings become visible to the
// next Match, and once enough records have arrived to drift the
// frequency order past Options.DriftThreshold the whole index is
// rebuilt under the fresh BTO order and swapped in atomically.
func (ix *Index) Add(rec records.Record) {
	ix.ingest.Lock()
	defer ix.ingest.Unlock()

	st := ix.state.Load()
	ranks := st.ord.intern(ix.adding.tokens(&ix.opts, rec))

	// Append the record before inserting its postings: a probe that sees
	// a posting entry (under the shard lock it acquires after our
	// unlock) must find the record behind it.
	st.recMu.Lock()
	id := int32(len(st.recs))
	st.recs = append(st.recs, irec{rec: rec, ranks: ranks})
	st.recMu.Unlock()
	l := len(ranks)
	for i, tok := range ranks[:ix.th.PrefixLength(l)] {
		sh, k := st.shards[int(tok)%len(st.shards)], pkey(tok, lenBucket(l))
		sh.mu.Lock()
		sh.post[k] = append(sh.post[k], pentry{id: id, length: int32(l), pos: int32(i)})
		sh.mu.Unlock()
	}

	// Lazy re-order on drift. The rebuild runs under the ingest lock —
	// concurrent Adds wait, queries keep answering from the old
	// generation until the swap.
	st.added++
	if float64(st.added) > ix.opts.DriftThreshold*float64(max(st.baseRecords, 1)) {
		ix.state.Store(ix.rebuild(st.ord, st.recs))
		ix.reorders.Add(1)
	}
}

// Funnel counts what each stage of Match's filter funnel has let through,
// in order: posting entries read from the probes' prefix tokens' lists,
// (record, probe) pairs left after the length, positional and suffix
// filters, pairs verified, pairs at or above τ. Each is at most the last.
type Funnel struct {
	Scanned    int64 `json:"postings_scanned"`
	Length     int64 `json:"length"`
	Positional int64 `json:"positional"`
	Suffix     int64 `json:"suffix"`
	Verified   int64 `json:"verified"`
	Results    int64 `json:"results"`
}

// Funnel reports the filter funnel counts accumulated so far.
func (ix *Index) Funnel() Funnel {
	ix.fmu.Lock()
	defer ix.fmu.Unlock()
	return ix.funnel
}

// cand is one (record, probe) pair under consideration by a Match.
type cand struct {
	id      int32
	need    int32 // overlap the pair must reach
	overlap int32 // accumulated over the probe's prefix tokens so far
	i0, j0  int32 // the pair's first match: positions in probe and record
	pruned  bool
}

// probeScratch is the state of one Match in flight: the probe's tokens and
// ranks, its candidates, and an open-addressing table over their ids
// (table[h] is 1 + an index into cands, 0 for empty).
type probeScratch struct {
	attr  []byte
	buf   tokenize.Buffer
	ranks []uint32
	cands []cand
	table []int32
	need  simfn.NeedTable
}

// tokens returns rec's join-attribute token set, valid until the next call.
func (s *probeScratch) tokens(o *Options, rec records.Record) *tokenize.Buffer {
	s.attr = s.attr[:0] // the bytes of rec.JoinAttr(o.JoinFields...)
	for i, f := range o.JoinFields {
		if f >= len(rec.Fields) {
			continue
		}
		if i > 0 {
			s.attr = append(s.attr, ' ')
		}
		s.attr = append(s.attr, rec.Fields[f]...)
	}
	s.buf.Fill(o.Tokenizer, s.attr)
	return &s.buf
}

// maxCandScratch bounds the candidates a probeScratch keeps room for: one
// hot-token probe would otherwise pin, and each Match clear, a huge table.
const maxCandScratch = 1 << 12

func (s *probeScratch) reset() {
	if len(s.cands) > maxCandScratch {
		s.cands, s.table = nil, nil
	}
	s.cands = s.cands[:0]
	clear(s.table)
}

// find returns record id's candidate, adding it if this probe has not
// met the record yet. The pointer is good until the next find.
func (s *probeScratch) find(id int32) (c *cand, fresh bool) {
	if 2*len(s.cands) >= len(s.table) {
		s.table = make([]int32, max(2*len(s.table), 256))
		for k := range s.cands {
			s.table[s.slot(s.cands[k].id)] = int32(k + 1)
		}
	}
	h := s.slot(id)
	if s.table[h] == 0 {
		s.cands = append(s.cands, cand{id: id})
		s.table[h], fresh = int32(len(s.cands)), true
	}
	return &s.cands[s.table[h]-1], fresh
}

// slot is where id sits in the table, or the empty slot it would take.
func (s *probeScratch) slot(id int32) int {
	mask := len(s.table) - 1
	h := int(uint32(id) * 2654435769 >> bits.LeadingZeros32(uint32(mask))) // Fibonacci hashing: the top bits
	for k := s.table[h]; k != 0 && s.cands[k-1].id != id; k = s.table[h] {
		h = (h + 1) & mask
	}
	return h
}

// Match returns every indexed record similar to probe (similarity ≥ τ),
// as JoinedPairs with the indexed record on the left and the probe on
// the right, in index insertion order. A record whose RID equals the
// probe's is skipped, so probing with an already-ingested record
// returns its true neighbors rather than itself. Probe tokens unknown
// to the index dictionary are discarded (§4): they cannot produce
// candidates, and the similarity is computed over the remaining tokens.
func (ix *Index) Match(probe records.Record) []records.JoinedPair {
	st := ix.state.Load()
	s := ix.probes.Get().(*probeScratch)
	defer ix.probes.Put(s)
	s.ranks = st.ord.appendRanks(s.ranks[:0], s.tokens(&ix.opts, probe))
	x, lx := s.ranks, len(s.ranks)
	if lx == 0 {
		return nil
	}
	p := ix.th.PrefixLength(lx)
	lo, hi := ix.th.LengthBounds(lx)

	// Gather candidates: for each probe prefix token, scan only the
	// posting lists of length buckets the length filter admits, under a
	// brief per-shard read lock. A pair met at several tokens accumulates
	// its overlap; the positional filter prunes it once the tokens left on
	// either side cannot reach its threshold.
	var scanned, positional, verified int64
	s.reset()
	bLo, bHi := lenBucket(lo), lenBucket(hi)
	for i := 0; i < p; i++ {
		tok := x[i]
		sh := st.shards[int(tok)%len(st.shards)]
		sh.mu.RLock()
		for b := bLo; b <= bHi; b++ {
			post := sh.post[pkey(tok, b)]
			scanned += int64(len(post))
			for _, e := range post {
				ly := int(e.length)
				if ly < lo || ly > hi {
					continue
				}
				c, fresh := s.find(e.id)
				if fresh {
					c.i0, c.j0 = int32(i), e.pos
					c.need = int32(s.need.Need(ix.th, lx, lo, ly))
				}
				if !c.pruned && filter.Positional(lx, ly, i, int(e.pos), int(c.overlap)+1, int(c.need)) {
					c.overlap++
				} else {
					c.pruned = true
				}
			}
		}
		sh.mu.RUnlock()
	}

	// The record log is read once, after the scan: Add logs a record
	// before it inserts the postings, so every id met above is in it.
	// Unpruned pairs take the suffix filter at their first match; the few
	// it leaves are verified in insertion order (deterministic output).
	recs := st.records()
	live := s.cands[:0]
	for _, c := range s.cands {
		if c.pruned {
			continue
		}
		positional++
		if filter.Suffix(x, recs[c.id].ranks, int(c.i0), int(c.j0), int(c.need)) {
			live = append(live, c)
		}
	}
	slices.SortFunc(live, func(a, b cand) int { return cmp.Compare(a.id, b.id) })
	var out []records.JoinedPair
	for _, c := range live {
		y := &recs[c.id]
		if y.rec.RID == probe.RID {
			continue
		}
		verified++
		if sim, ok := ix.th.Verify(x, y.ranks); ok {
			out = append(out, records.JoinedPair{Left: y.rec, Right: probe, Sim: sim})
		}
	}

	ix.fmu.Lock()
	ix.funnel.Scanned += scanned
	ix.funnel.Length += int64(len(s.cands))
	ix.funnel.Positional += positional
	ix.funnel.Suffix += int64(len(live))
	ix.funnel.Verified += verified
	ix.funnel.Results += int64(len(out))
	ix.fmu.Unlock()
	return out
}

// Len reports the number of indexed records.
func (ix *Index) Len() int { return len(ix.state.Load().records()) }

// Tokens reports the current dictionary size.
func (ix *Index) Tokens() int {
	ord := ix.state.Load().ord
	ord.mu.RLock()
	defer ord.mu.RUnlock()
	return len(ord.toks)
}

// Reorders reports how many drift-triggered re-orders have run.
func (ix *Index) Reorders() int64 { return ix.reorders.Load() }

// Generation is 1 for the initial build, +1 per re-order.
func (ix *Index) Generation() uint64 { return uint64(ix.reorders.Load()) + 1 }
