package core

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/tokenize"
)

// dblpLine is shaped like a bench/ DBLP record: mixed-case title with
// punctuation and a repeated word, authors, a longer rest field.
const dblpLine = "1234567\tEfficient Parallel Set-Similarity Joins Using MapReduce: the Parallel Case\t" +
	"Rares Vernica, Michael J. Carey, Chen Li\t" +
	"SIGMOD 2010 proceedings of the international conference on management of data pages 495-506"

// countEmitter discards what it is handed and counts the calls.
type countEmitter struct{ n *int }

func (e countEmitter) Emit(_, _ []byte) error { *e.n++; return nil }

// allocProbe runs inside a real map task — the only place a mapper has
// its engine Context, side files and InputFile — and measures a warmed
// Map call of the task instance it wraps against a discarding emitter
// that counts the emissions. Cleanup is forwarded, its emissions counted
// apart. When setupAllocs is set, Setup is measured too: Stage 3's
// mappers only take views of their side files there.
type allocProbe struct {
	inner        mapreduce.Mapper
	allocs       *float64
	setupAllocs  *float64
	emits        *int
	cleanupEmits *int
}

func (p *allocProbe) NewTaskInstance() any {
	q := *p
	q.inner = p.inner.(mapreduce.TaskLocal).NewTaskInstance().(mapreduce.Mapper)
	return &q
}

func (p *allocProbe) Cleanup(ctx *mapreduce.Context, _ mapreduce.Emitter) error {
	if c, ok := p.inner.(mapreduce.Cleanupper); ok {
		return c.Cleanup(ctx, countEmitter{p.cleanupEmits})
	}
	return nil
}

func (p *allocProbe) Setup(ctx *mapreduce.Context) error {
	s, ok := p.inner.(mapreduce.Setupper)
	if !ok {
		return nil
	}
	if p.setupAllocs != nil {
		*p.setupAllocs = testing.AllocsPerRun(20, func() {
			if err := s.Setup(ctx); err != nil {
				panic(err)
			}
		})
	}
	return s.Setup(ctx)
}

func (p *allocProbe) Map(ctx *mapreduce.Context, key, value []byte, _ mapreduce.Emitter) error {
	var err error
	call := func() {
		if e := p.inner.Map(ctx, key, value, countEmitter{p.emits}); e != nil {
			err = e
		}
	}
	call() // grow the scratch, create the counters
	*p.allocs = testing.AllocsPerRun(200, call)
	return err
}

// TestMapperRecordPathAllocatesNothing pins the tentpole: one warmed
// call of each per-record mapper does no heap allocation. Stage 1's
// mapper only counts there; its task emits from Cleanup.
func TestMapperRecordPathAllocatesNothing(t *testing.T) {
	fs := dfs.New(dfs.Options{BlockSize: 64 << 10, Nodes: 1})
	if err := mapreduce.WriteTextFile(fs, "in", []string{dblpLine}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{FS: fs, Work: "w", NumReducers: 1}
	tokenFile, _, err := Stage1(cfg, "in")
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	// BRJ phase 1 emits only a paired record: list the probe record's RID
	// so the warmed call goes through the lookup and the emit. OPRJ finds
	// it on both sides of its pairs.
	writeRIDFile(t, fs, "rids", 1234567)
	writeStage2Parts(t, fs, "pairs", []records.RIDPair{{A: 1, B: 1234567, Sim: 0.9}, {A: 1234567, B: 1234568, Sim: 0.8}})
	pairFiles, _, err := writePairFiles(&cfg, "pairs", "w")
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range []progSpec{
		{Kind: "s1-bto-count"},
		{Kind: "s2", TokenFile: tokenFile},
		{Kind: "s3-brj1", PairsPrefix: "w/s2", RIDFiles: []string{"rids"}},
		{Kind: "s3-oprj", PairFiles: pairFiles},
	} {
		job, err := coreJob(&cfg, ps)
		if err != nil {
			t.Fatal(err)
		}
		allocs, setupAllocs := -1.0, 0.0
		job.Name, job.Inputs, job.Output = "probe-"+ps.Kind, []string{"in"}, "probe-"+ps.Kind
		emits, cleanupEmits := new(int), new(int)
		probe := &allocProbe{inner: job.Mapper, allocs: &allocs, emits: emits, cleanupEmits: cleanupEmits}
		job.Mapper = probe
		job.SideFiles = append(ps.RIDFiles, ps.PairFiles...)
		if ps.TokenFile != "" {
			job.SideFiles = []string{ps.TokenFile}
		}
		if strings.HasPrefix(ps.Kind, "s3-") {
			probe.setupAllocs = &setupAllocs
		}
		if _, err := mapreduce.Run(job); err != nil {
			t.Fatalf("%s: %v", ps.Kind, err)
		}
		if ps.Kind == "s1-bto-count" {
			if *emits != 0 || *cleanupEmits == 0 {
				t.Errorf("%s mapper: %d emissions from Map, %d from Cleanup; want none and some", ps.Kind, *emits, *cleanupEmits)
			}
		} else if *emits == 0 {
			t.Errorf("%s mapper: the probed Map call emitted nothing", ps.Kind)
		}
		if allocs != 0 {
			t.Errorf("%s mapper: %v allocations per warmed Map call, want 0", ps.Kind, allocs)
		}
		if setupAllocs != 0 {
			t.Errorf("%s mapper: %v allocations per Setup call, want 0", ps.Kind, setupAllocs)
		}
	}
}

// orderRecorder notes which *tokenize.Order each Stage 2 map task ends
// up with after Setup.
type orderRecorder struct {
	*stage2Mapper
	mu   *sync.Mutex
	seen *[]*tokenize.Order
}

func (r *orderRecorder) NewTaskInstance() any {
	return &orderRecorder{stage2Mapper: r.stage2Mapper.NewTaskInstance().(*stage2Mapper), mu: r.mu, seen: r.seen}
}

func (r *orderRecorder) Setup(ctx *mapreduce.Context) error {
	err := r.stage2Mapper.Setup(ctx)
	r.mu.Lock()
	*r.seen = append(*r.seen, r.order)
	r.mu.Unlock()
	return err
}

// stage2Orders runs one Stage 2 job with many concurrently set-up map
// tasks and returns the token order each task used.
func stage2Orders(t *testing.T, cfg Config, input, tokenFile, work string, limit int64) ([]*tokenize.Order, error) {
	t.Helper()
	cfg.Work, cfg.MemoryLimit = work, limit
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	job, err := coreJob(&cfg, progSpec{Kind: "s2", TokenFile: tokenFile})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		seen []*tokenize.Order
	)
	job.Name, job.Inputs, job.Output = "s2-"+work, []string{input}, work+"/s2"
	job.SideFiles = []string{tokenFile}
	job.Mapper = &orderRecorder{stage2Mapper: job.Mapper.(*stage2Mapper), mu: &mu, seen: &seen}
	_, err = mapreduce.Run(job)
	return seen, err
}

// TestTokenOrderParsedOncePerJob: every task of a job shares one parsed
// order, a job over a different token file gets a different one, and a
// task is still charged the file it did not have to parse.
func TestTokenOrderParsedOncePerJob(t *testing.T) {
	fs := dfs.New(dfs.Options{BlockSize: 1 << 10, Nodes: 2})
	cfg := Config{FS: fs, NumReducers: 2, Parallelism: 8}
	var tokenFiles [2]string
	for i, in := range []string{"inA", "inB"} {
		if err := mapreduce.WriteTextFile(fs, in, makeLines(int64(40+i), 120+60*i, 1)); err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Work = "s1" + in
		var err error
		if tokenFiles[i], _, err = Stage1(c, in); err != nil {
			t.Fatal(err)
		}
	}
	var orders [2]*tokenize.Order
	for i, in := range []string{"inA", "inB"} {
		seen, err := stage2Orders(t, cfg, in, tokenFiles[i], "w"+in, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) < 8 {
			t.Fatalf("job %s ran %d map tasks; the test needs concurrent Setups", in, len(seen))
		}
		for _, o := range seen {
			if o != seen[0] {
				t.Fatalf("job %s: two tasks parsed their own token order", in)
			}
		}
		data, err := fs.ReadAll(tokenFiles[i])
		if err != nil {
			t.Fatal(err)
		}
		if want := len(strings.Fields(string(data))); seen[0].Len() != want {
			t.Fatalf("job %s: shared order has %d tokens, its token file %d", in, seen[0].Len(), want)
		}
		orders[i] = seen[0]
	}
	if orders[0] == orders[1] {
		t.Fatal("jobs over different token files shared one order")
	}

	// inB's order is the cached one now; a task whose budget cannot hold
	// the token file must fail all the same.
	_, err := stage2Orders(t, cfg, "inB", tokenFiles[1], "wtight", 64)
	if !errors.Is(err, mapreduce.ErrInsufficientMemory) {
		t.Fatalf("Stage 2 under a 64-byte budget: %v, want ErrInsufficientMemory", err)
	}
}

// TestRecordScratchDropsOversizedBuffers: what one huge record grew is
// released at the next record, not pinned for the rest of the task.
func TestRecordScratchDropsOversizedBuffers(t *testing.T) {
	cfg := Config{JoinFields: []int{records.FieldTitle, records.FieldAuthors}, Tokenizer: tokenize.Word{}}
	var sb strings.Builder
	sb.WriteString("1\t")
	const n = 300000
	for i := 0; i < n; i++ {
		sb.WriteString("w")
		sb.WriteString(strings.Repeat("x", i%7))
		sb.WriteByte(byte('a' + i%26))
		sb.WriteByte(' ')
	}
	huge := []byte(sb.String())
	var s recordScratch
	if _, err := s.readTokens(&cfg, huge); err != nil {
		t.Fatal(err)
	}
	if s.toks.Len() != n {
		t.Fatalf("huge record: %d tokens", s.toks.Len())
	}
	order := tokenize.NewOrder(s.toks.Strings())
	if _, ranks, err := s.project(&cfg, order, huge); err != nil || len(ranks) != n {
		t.Fatalf("huge record: %d ranks, %v", len(ranks), err)
	}
	if cap(s.attr) <= maxRecordScratch || 4*cap(s.ranks) <= maxRecordScratch {
		t.Fatalf("huge record grew only %d attr bytes and %d ranks; the cap is not exercised", cap(s.attr), cap(s.ranks))
	}
	if _, _, err := s.project(&cfg, order, []byte(dblpLine)); err != nil {
		t.Fatal(err)
	}
	if cap(s.attr) > maxRecordScratch || 4*cap(s.ranks) > maxRecordScratch {
		t.Errorf("scratch kept %d attr bytes and %d ranks after the next record, cap %d bytes",
			cap(s.attr), cap(s.ranks), maxRecordScratch)
	}
}
