package cluster

import (
	"time"

	"fuzzyjoin/internal/trace"
)

// Timeline records where the failure-free simulation behind FlowMakespan
// placed each attempt, as one trace.TaskSpan event per attempt in
// simulated time — the per-node execution timeline of the virtual
// cluster, not host wall-clock. Jobs run back to back (stages are
// dependent), each offset by its job overhead and side-file broadcast;
// the reduce wave of a job starts when its map wave ends. The latest span
// End therefore equals FlowMakespan minus any trailing overhead, and the
// clock the function leaves off at equals FlowMakespan exactly.
//
// Attempt 1 spans are Kind "run"; later attempts of a chain (retries)
// are Kind "rerun". When a JobCost carries ReduceBackups, each backup is
// rendered as a concurrent Kind "backup" span starting with the task's
// first attempt on a neighbouring node — wasted work that occupies a
// slot without extending the wave.
//
// engineEvents, when non-nil, is the engine's collected trace; its
// node-down/node-up events are translated from host time to the
// simulated instant of their barrier (before-map = job start, after-map
// = end of the job's map wave) and appended as marks. All other event
// types are ignored, so a full Trace.Events slice can be passed as is.
func (s Spec) Timeline(jobs []JobCost, engineEvents []trace.Event) []trace.Event {
	s = s.normalized()
	var events []trace.Event
	span := func(job, phase string, task, attempt, node int, start, end time.Duration, kind string) trace.Event {
		return trace.Event{
			Type: trace.TaskSpan, T: int64(start), Job: job, Phase: phase,
			Task: task, Attempt: attempt, Node: node,
			Start: int64(start), End: int64(end), Kind: kind,
		}
	}

	var clock time.Duration
	for _, jc := range jobs {
		jobStart := clock
		mapEnd := jobStart + s.JobOverhead + s.broadcastTime(jc)
		// firstReduce remembers each reduce task's first attempt, which
		// its backup races alongside.
		firstReduce := map[int]trace.Event{}
		clock = s.simulateFrom(jc, FailureModel{}, jobStart, 0,
			func(phase string, task, attempt, node int, start, end time.Duration) {
				kind := trace.KindRun
				if attempt > 1 {
					kind = trace.KindRerun
				}
				e := span(jc.Name, phase, task, attempt, node, start, end, kind)
				if phase == trace.PhaseMap {
					mapEnd = max(mapEnd, end)
				} else if attempt == 1 {
					firstReduce[task] = e
				}
				events = append(events, e)
			}).Makespan

		for i, b := range jc.ReduceBackups {
			if b <= 0 {
				continue
			}
			// The backup launches with the original and runs on another
			// node (the same node when the cluster has only one).
			first := firstReduce[i]
			start := time.Duration(first.Start)
			events = append(events, span(jc.Name, trace.PhaseReduce, i, 2, (first.Node+1)%s.Nodes,
				start, start+b+s.reduceFetch(jc, i)+s.TaskOverhead, trace.KindBackup))
		}

		for _, e := range engineEvents {
			if (e.Type != trace.NodeDown && e.Type != trace.NodeUp) || e.Job != jc.Name {
				continue
			}
			at := jobStart
			if e.Detail == "after-map" {
				at = mapEnd
			}
			mark := e
			mark.T = int64(at)
			mark.Start = int64(at)
			events = append(events, mark)
		}
	}
	return events
}
