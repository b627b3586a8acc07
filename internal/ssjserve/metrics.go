package ssjserve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fuzzyjoin/internal/trace"
)

// Stats is the service's metrics snapshot. The JSON tags are
// schema-stable (versioned by trace.SchemaVersion, like the batch
// pipeline's MetricsExport).
type Stats struct {
	Schema int `json:"schema"`

	// Index shape.
	Records  int    `json:"records"`
	Tokens   int    `json:"tokens"`
	Shards   int    `json:"shards"`
	Gen      uint64 `json:"generation"`
	Reorders int64  `json:"reorders"`

	// Query traffic since start.
	Queries  int64 `json:"queries"`
	Pairs    int64 `json:"pairs"`
	Canceled int64 `json:"canceled"`
	Adds     int64 `json:"adds"`

	// Funnel is the Match filter funnel, in order: posting entries scanned,
	// pairs left after each filter, pairs verified, result pairs.
	Funnel Funnel `json:"funnel"`

	// CacheHits and CacheMisses are always zero: the verdict cache they
	// counted is gone. bench/serve.go still reads them, and the change
	// that removed the cache claimed a gain, so it could not edit bench/;
	// a later benchmark PR drops ssjserve.cache_hit_share and these.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`

	// QPS counts answered queries over uptime. P50Ms and P99Ms are timed
	// from admission (the call entering the queue): what a client sees.
	QPS      float64 `json:"qps"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	UptimeMs float64 `json:"uptime_ms"`
}

// latRingSize is the latency reservoir: percentiles are computed over
// the most recent observations, enough for stable p99 at modest memory.
const latRingSize = 8192

// metrics accumulates query counters and a latency ring.
type metrics struct {
	start    time.Time
	queries  atomic.Int64
	pairs    atomic.Int64
	canceled atomic.Int64
	adds     atomic.Int64

	mu    sync.Mutex
	ring  [latRingSize]time.Duration
	count int64 // total observations; ring holds the last min(count, size)
}

func newMetrics() *metrics { return &metrics{start: time.Now()} }

func (m *metrics) observe(d time.Duration) {
	m.mu.Lock()
	m.ring[m.count%latRingSize] = d
	m.count++
	m.mu.Unlock()
}

// percentiles returns p50/p99 over the retained window (0s with no data).
func (m *metrics) percentiles() (p50, p99 time.Duration) {
	m.mu.Lock()
	n := m.count
	if n > latRingSize {
		n = latRingSize
	}
	lat := make([]time.Duration, n)
	copy(lat, m.ring[:n])
	m.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := func(q float64) time.Duration {
		i := int(q * float64(n-1))
		return lat[i]
	}
	return idx(0.50), idx(0.99)
}

// snapshot assembles the Stats document for the given index.
func (m *metrics) snapshot(ix *Index) Stats {
	p50, p99 := m.percentiles()
	up := time.Since(m.start)
	s := Stats{
		Schema:   trace.SchemaVersion,
		Records:  ix.Len(),
		Tokens:   ix.Tokens(),
		Shards:   ix.opts.Shards,
		Gen:      ix.Generation(),
		Reorders: ix.Reorders(),
		Queries:  m.queries.Load(),
		Pairs:    m.pairs.Load(),
		Canceled: m.canceled.Load(),
		Adds:     m.adds.Load(),
		Funnel:   ix.Funnel(),
		P50Ms:    float64(p50) / float64(time.Millisecond),
		P99Ms:    float64(p99) / float64(time.Millisecond),
		UptimeMs: float64(up) / float64(time.Millisecond),
	}
	if up > 0 {
		s.QPS = float64(s.Queries) / up.Seconds()
	}
	return s
}
