package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval of the traced pass. Start and End are
// nanoseconds since the recorder was created; Parent is the index of the
// enclosing span in the recorder (-1 for the root).
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	// Self is End-Start minus the part of that interval the span's
	// children cover; filled in by finish.
	Self int64 `json:"self"`
}

// recorder keeps spans in memory until the workload ends. A nil
// *recorder is the untraced run: begin and end do nothing, so the
// measured code path carries no tracing cost.
type recorder struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// begin opens a span under parent and returns its id (-1 when untraced).
func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Workload: r.workload})
	return len(r.spans) - 1
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	return time.Duration(now - r.spans[id].Start)
}

// timed runs fn inside a span and returns how long it took; it times fn
// with or without a recorder.
func (r *recorder) timed(parent int, name string, fn func(id int)) time.Duration {
	id := r.begin(parent, name)
	start := time.Now()
	fn(id)
	d := time.Since(start)
	r.end(id)
	return d
}

// finish computes self times and returns the spans. Children of one
// parent that ran concurrently (the serve clients) may together cover
// more than the parent's interval; self time is floored at zero.
func (r *recorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for i := range r.spans {
		r.spans[i].Self = max(0, r.spans[i].End-r.spans[i].Start-covered[i])
	}
	return r.spans
}

// writeSpans writes one JSON object per line to dir/<workload>.trace.jsonl.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
