package ssjserve

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"fuzzyjoin/internal/mapreduce"
)

func testService(t *testing.T, n int, opts Options) *Service {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	s, err := NewService(opts, genRecords(rng, n, 50))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestServiceMatchAndStats(t *testing.T) {
	s := testService(t, 200, Options{Threshold: 0.7, Workers: 4})
	ctx := context.Background()
	var pairs int
	for i := 0; i < 50; i++ {
		probe := s.ix.state.Load().records()[i].rec
		got, err := s.Match(ctx, probe)
		if err != nil {
			t.Fatal(err)
		}
		want := s.ix.Match(probe)
		assertSameAnswers(t, got, want, "pooled vs direct")
		pairs += len(got)
	}
	st := s.Stats()
	// Direct ix.Match calls above bypass the pool, so Queries counts the
	// pooled half only.
	if st.Queries != 50 {
		t.Fatalf("stats queries = %d, want 50", st.Queries)
	}
	if int(st.Pairs) != pairs {
		t.Fatalf("stats pairs = %d, want %d", st.Pairs, pairs)
	}
	if st.Records != 200 || st.Shards != 8 || st.Gen != 1 {
		t.Fatalf("stats shape wrong: %+v", st)
	}
	if st.QPS <= 0 || st.UptimeMs <= 0 {
		t.Fatalf("throughput fields unset: %+v", st)
	}
	// The funnel counts pooled and direct calls alike, each stage at most
	// the one before it.
	if f := st.Funnel; f.Results != int64(2*pairs) || !monotone(f) {
		t.Fatalf("filter funnel %+v, want monotone down to %d results", f, 2*pairs)
	}
}

// TestLatencyCountsQueueWait: a query's latency runs from its admission,
// not from when a worker picked it up.
func TestLatencyCountsQueueWait(t *testing.T) {
	s := testService(t, 50, Options{Threshold: 0.7, Workers: 1})
	probe := s.ix.state.Load().records()[0].rec
	waited := newTask(context.Background(), probe)
	waited.admitted = waited.admitted.Add(-80 * time.Millisecond) // as if queued that long
	s.queue <- waited
	if r := <-waited.done; r.err != nil {
		t.Fatal(r.err)
	}
	if st := s.Stats(); st.P50Ms < 80 || st.P99Ms < 80 {
		t.Fatalf("p50 %v ms, p99 %v ms after one query admitted 80 ms before it ran", st.P50Ms, st.P99Ms)
	}
}

func TestServiceMatchBatch(t *testing.T) {
	s := testService(t, 150, Options{Threshold: 0.7, Workers: 3})
	probes := genRecords(rand.New(rand.NewSource(23)), 40, 50)
	got, err := s.MatchBatch(context.Background(), probes)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(probes) {
		t.Fatalf("batch returned %d answers for %d probes", len(got), len(probes))
	}
	for i, probe := range probes {
		assertSameAnswers(t, got[i], s.ix.Match(probe), "batch answer")
	}
}

func TestServiceCancel(t *testing.T) {
	s := testService(t, 100, Options{Threshold: 0.7, Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	probe := s.ix.state.Load().records()[0].rec
	_, err := s.Match(ctx, probe)
	if !errors.Is(err, mapreduce.ErrCanceled) {
		t.Fatalf("canceled query returned %v, want ErrCanceled", err)
	}
	if s.Stats().Canceled == 0 {
		t.Fatal("cancellation not counted")
	}
	// The service must stay healthy after cancellations.
	if _, err := s.Match(context.Background(), probe); err != nil {
		t.Fatalf("match after cancel: %v", err)
	}
}

func TestServiceClose(t *testing.T) {
	s := testService(t, 50, Options{Threshold: 0.7, Workers: 2})
	probe := s.ix.state.Load().records()[0].rec
	if _, err := s.Match(context.Background(), probe); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Match(context.Background(), probe); !errors.Is(err, ErrClosed) {
		t.Fatalf("match after close returned %v, want ErrClosed", err)
	}
	if err := s.Add(probe); !errors.Is(err, ErrClosed) {
		t.Fatalf("add after close returned %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

func TestServiceAddVisible(t *testing.T) {
	s := testService(t, 100, Options{Threshold: 0.7, Workers: 2})
	rng := rand.New(rand.NewSource(31))
	extra := genRecords(rng, 30, 50)
	for i := range extra {
		extra[i].RID += 10000
		if err := s.Add(extra[i]); err != nil {
			t.Fatal(err)
		}
	}
	// An added record's exact duplicate (different RID) must match it.
	dup := extra[7]
	dup.RID = 99999
	got, err := s.Match(context.Background(), dup)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range got {
		if p.Left.RID == extra[7].RID {
			found = true
			if p.Sim != 1 {
				t.Fatalf("identical record matched at sim %v", p.Sim)
			}
		}
	}
	if !found {
		t.Fatalf("added record invisible to queries (answers: %v)", rids(got))
	}
	if s.Stats().Adds != int64(len(extra)) {
		t.Fatalf("stats adds = %d, want %d", s.Stats().Adds, len(extra))
	}
}
