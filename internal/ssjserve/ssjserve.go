package ssjserve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/records"
)

// ErrClosed is returned by queries and ingestion after Close.
var ErrClosed = errors.New("ssjserve: service closed")

// canceledErr wraps a context error in the system-wide typed
// cancellation sentinel (mapreduce.ErrCanceled — the same identity a
// canceled batch join surfaces, so callers match one error everywhere).
func canceledErr(ctx context.Context) error {
	return fmt.Errorf("%w: %v", mapreduce.ErrCanceled, ctx.Err())
}

// task is one admitted query: the reply channel is buffered so a worker
// never blocks on a caller that gave up (canceled mid-flight).
type task struct {
	ctx      context.Context
	probe    records.Record
	admitted time.Time // when the caller asked; latency is timed from here
	done     chan matchResult
}

func newTask(ctx context.Context, probe records.Record) task {
	return task{ctx: ctx, probe: probe, admitted: time.Now(), done: make(chan matchResult, 1)}
}

type matchResult struct {
	pairs []records.JoinedPair
	err   error
}

// Service fronts an Index with batched query admission: queries enter a
// bounded queue and a fixed worker pool drains it, so a load spike
// degrades into queueing (with backpressure once the queue fills)
// instead of unbounded goroutine and memory growth. It also owns the
// service metrics (QPS, p50/p99, the filter funnel — see Stats).
type Service struct {
	ix    *Index
	met   *metrics
	queue chan task

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// NewService builds the index over corpus and starts the worker pool.
func NewService(opts Options, corpus []records.Record) (*Service, error) {
	ix, err := NewIndex(opts, corpus)
	if err != nil {
		return nil, err
	}
	s := &Service{
		ix:     ix,
		met:    newMetrics(),
		queue:  make(chan task, ix.opts.QueueDepth),
		closed: make(chan struct{}),
	}
	for i := 0; i < ix.opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.closed:
			return
		case t := <-s.queue:
			if err := t.ctx.Err(); err != nil {
				s.met.canceled.Add(1)
				t.done <- matchResult{err: canceledErr(t.ctx)}
				continue
			}
			pairs := s.ix.Match(t.probe)
			s.met.observe(time.Since(t.admitted))
			s.met.queries.Add(1)
			s.met.pairs.Add(int64(len(pairs)))
			t.done <- matchResult{pairs: pairs}
		}
	}
}

// Match answers one query: every indexed record similar to probe, with
// the indexed record on the left (see Index.Match). It blocks for
// admission when the queue is full; canceling ctx abandons the query at
// any point with an error wrapping mapreduce.ErrCanceled.
func (s *Service) Match(ctx context.Context, probe records.Record) ([]records.JoinedPair, error) {
	t := newTask(ctx, probe)
	select {
	case s.queue <- t:
	case <-ctx.Done():
		s.met.canceled.Add(1)
		return nil, canceledErr(ctx)
	case <-s.closed:
		return nil, ErrClosed
	}
	select {
	case r := <-t.done:
		return r.pairs, r.err
	case <-ctx.Done():
		s.met.canceled.Add(1)
		return nil, canceledErr(ctx)
	case <-s.closed:
		return nil, ErrClosed
	}
}

// MatchBatch admits a batch of probes together and collects all answers
// (amortizing admission for bulk clients). The answer slice is aligned
// with probes; a ctx cancellation abandons the whole batch.
func (s *Service) MatchBatch(ctx context.Context, probes []records.Record) ([][]records.JoinedPair, error) {
	tasks := make([]task, len(probes))
	for i, p := range probes {
		tasks[i] = newTask(ctx, p)
		select {
		case s.queue <- tasks[i]:
		case <-ctx.Done():
			s.met.canceled.Add(1)
			return nil, canceledErr(ctx)
		case <-s.closed:
			return nil, ErrClosed
		}
	}
	out := make([][]records.JoinedPair, len(probes))
	for i := range tasks {
		select {
		case r := <-tasks[i].done:
			if r.err != nil {
				return nil, r.err
			}
			out[i] = r.pairs
		case <-ctx.Done():
			s.met.canceled.Add(1)
			return nil, canceledErr(ctx)
		case <-s.closed:
			return nil, ErrClosed
		}
	}
	return out, nil
}

// Add ingests one record (see Index.Add).
func (s *Service) Add(rec records.Record) error {
	select {
	case <-s.closed:
		return ErrClosed
	default:
	}
	s.ix.Add(rec)
	s.met.adds.Add(1)
	return nil
}

// Stats snapshots the service metrics.
func (s *Service) Stats() Stats { return s.met.snapshot(s.ix) }

// Index exposes the underlying index (tests and the smoke gate diff its
// answers against the oracle without going through the pool).
func (s *Service) Index() *Index { return s.ix }

// Close stops the worker pool. In-flight callers receive ErrClosed;
// Close returns once every worker has exited. Safe to call twice.
func (s *Service) Close() error {
	s.closeOnce.Do(func() { close(s.closed) })
	s.wg.Wait()
	return nil
}
