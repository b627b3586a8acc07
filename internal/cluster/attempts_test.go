package cluster

import (
	"testing"
	"testing/quick"
	"time"

	"fuzzyjoin/internal/mapreduce"
)

// TestLPTAttemptsReducesToLPT: single-attempt chains must schedule
// exactly like the plain task list — scheduling attempt chains is a
// strict generalization of LPT.
func TestLPTAttemptsReducesToLPT(t *testing.T) {
	f := func(raw []uint16, slots8 uint8) bool {
		slots := int(slots8%16) + 1
		tasks := make([]time.Duration, len(raw))
		chains := make([][]time.Duration, len(raw))
		for i, v := range raw {
			tasks[i] = time.Duration(v)
			chains[i] = []time.Duration{tasks[i]}
		}
		return chainSpan(chains, slots) == lptSpan(tasks, slots)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLPTAttemptsSerializesRetries: a task's retry cannot start before
// its previous attempt failed, even when an idle slot is available.
func TestLPTAttemptsSerializesRetries(t *testing.T) {
	// One task, chain 5 then 3, plenty of slots: the retry waits for the
	// failure, so the makespan is 8, not max(5,3).
	if got := chainSpan([][]time.Duration{{5, 3}}, 8); got != 8 {
		t.Fatalf("single retried task makespan = %v, want 8", got)
	}
	// Two slots, tasks {5,3} and {4}: the failed attempt occupies slot A
	// for 5 while {4} runs on B; the retry lands on B at t=5 (it was free
	// at 4 but must wait for the failure) ending at 8.
	if got := chainSpan([][]time.Duration{{5, 3}, {4}}, 2); got != 8 {
		t.Fatalf("retry + other task makespan = %v, want 8", got)
	}
}

// TestRetriesNeverShortenMakespan: adding failed attempts to any chain
// can only grow (or keep) the makespan.
func TestRetriesNeverShortenMakespan(t *testing.T) {
	f := func(raw []uint16, fail uint16, idx8, slots8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		slots := int(slots8%8) + 1
		clean := make([][]time.Duration, len(raw))
		faulty := make([][]time.Duration, len(raw))
		for i, v := range raw {
			clean[i] = []time.Duration{time.Duration(v)}
			faulty[i] = []time.Duration{time.Duration(v)}
		}
		i := int(idx8) % len(raw)
		faulty[i] = append([]time.Duration{time.Duration(fail)}, faulty[i]...)
		return chainSpan(faulty, slots) >= chainSpan(clean, slots)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMakespanChargesFailedAttempts: end to end, a reduce task with a
// failed attempt stretches the job makespan by the wasted work.
func TestMakespanChargesFailedAttempts(t *testing.T) {
	s := Spec{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1}
	clean := JobCost{
		MapCosts:    []time.Duration{time.Second},
		ReduceCosts: []time.Duration{time.Second},
	}
	faulty := clean
	faulty.ReduceAttempts = [][]time.Duration{{500 * time.Millisecond, time.Second}}
	cleanSpan := s.Makespan(clean)
	faultySpan := s.Makespan(faulty)
	if want := cleanSpan + 500*time.Millisecond; faultySpan != want {
		t.Fatalf("faulty makespan = %v, want %v (clean %v + 500ms wasted)", faultySpan, want, cleanSpan)
	}
}

// TestMakespanRetriedMapPaysLocality: a map attempt chain flows through
// the locality-aware scheduler without panicking and charges every
// attempt.
func TestMakespanRetriedMapPaysLocality(t *testing.T) {
	s := Spec{Nodes: 2, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1,
		NetBytesPerSec: 1 << 20}
	jc := JobCost{
		MapCosts:      []time.Duration{time.Second},
		MapAttempts:   [][]time.Duration{{time.Second, time.Second}},
		MapLocations:  [][]int{{0}},
		MapInputBytes: []int64{0},
	}
	if span, _, _ := mapWave(s, jc); span != 2*time.Second {
		t.Fatalf("map span = %v, want 2s (failed attempt + retry)", span)
	}
}

// TestFromMetricsAttemptChains: FromMetrics copies attempt chains only
// for retried tasks and leaves the rest nil.
func TestFromMetricsAttemptChains(t *testing.T) {
	m := &mapreduce.Metrics{
		Job: "j",
		MapTasks: []mapreduce.TaskMetrics{
			{Cost: time.Second, Attempts: 1, AttemptCosts: []time.Duration{time.Second}},
			{Cost: 2 * time.Second, Attempts: 2,
				AttemptCosts: []time.Duration{time.Second / 2, 2 * time.Second}},
		},
		ReduceTasks: []mapreduce.TaskMetrics{
			{Cost: time.Second, Attempts: 1},
		},
	}
	jc := FromMetrics(m)
	if jc.MapAttempts == nil {
		t.Fatal("MapAttempts not populated for a retried task")
	}
	if jc.MapAttempts[0] != nil {
		t.Fatalf("single-attempt task got a chain: %v", jc.MapAttempts[0])
	}
	if len(jc.MapAttempts[1]) != 2 || jc.MapAttempts[1][0] != time.Second/2 {
		t.Fatalf("retried task chain wrong: %v", jc.MapAttempts[1])
	}
	if jc.ReduceAttempts != nil {
		t.Fatalf("ReduceAttempts should stay nil with no retries: %v", jc.ReduceAttempts)
	}
}
