package cluster

import (
	"time"

	"fuzzyjoin/internal/trace"
)

// Timeline records where the simulation behind FlowMakespan placed each
// attempt, as one trace.TaskSpan event per attempt in simulated time —
// the per-node execution timeline of the virtual cluster, not host
// wall-clock. Jobs run back to back (stages are dependent), each offset
// by its job overhead and side-file broadcast; the reduce wave of a job
// starts when its map wave ends. The latest span End therefore equals
// FlowMakespan minus any trailing overhead, and the clock the function
// leaves off at equals FlowMakespan exactly.
//
// Attempt 1 spans are Kind "run"; later attempts of a chain (retries)
// are Kind "rerun".
func (s Spec) Timeline(jobs []JobCost) []trace.Event {
	s = s.normalized()
	var events []trace.Event
	var clock time.Duration
	for _, jc := range jobs {
		clock = s.job(jc, clock, func(phase string, task, attempt, node int, start, end time.Duration) {
			kind := trace.KindRun
			if attempt > 1 {
				kind = trace.KindRerun
			}
			events = append(events, trace.Event{
				Type: trace.TaskSpan, T: int64(start), Job: jc.Name, Phase: phase,
				Task: task, Attempt: attempt, Node: node,
				Start: int64(start), End: int64(end), Kind: kind,
			})
		})
	}
	return events
}
