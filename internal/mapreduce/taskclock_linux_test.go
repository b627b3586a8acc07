package mapreduce

import (
	"testing"
	"time"
)

// TestTaskCostExcludesWaiting: a task's cost is the CPU time of its own
// thread, so time its body spends blocked is not charged to it.
func TestTaskCostExcludesWaiting(t *testing.T) {
	const nap = 10 * time.Millisecond
	sleepyMapper := MapFunc(func(ctx *Context, key, value []byte, out Emitter) error {
		time.Sleep(nap)
		return wordCountMapper(ctx, key, value, out)
	})
	sleepyReducer := ReduceFunc(func(ctx *Context, key []byte, values *Values, out Emitter) error {
		time.Sleep(nap)
		return sumReducer(ctx, key, values, out)
	})
	fs := newFS()
	if err := WriteTextFile(fs, "in", []string{"a b c", "b c d", "c d e", "a a a"}); err != nil {
		t.Fatal(err)
	}
	m, err := Run(Job{Name: "sleepy", FS: fs, Inputs: []string{"in"}, InputFormat: Text,
		Output: "out", Mapper: sleepyMapper, Reducer: sleepyReducer, NumReducers: 1})
	if err != nil {
		t.Fatal(err)
	}
	check := func(phase string, tasks []TaskMetrics, naps func(TaskMetrics) int64) {
		for i, tm := range tasks {
			slept := time.Duration(naps(tm)) * nap
			if slept == 0 {
				continue
			}
			if tm.Cost <= 0 || tm.Cost >= slept/2 {
				t.Errorf("%s task %d: cost %v after sleeping %v, want more than 0 and under half", phase, i, tm.Cost, slept)
			}
		}
	}
	check("map", m.MapTasks, func(tm TaskMetrics) int64 { return tm.InputRecords })
	check("reduce", m.ReduceTasks, func(tm TaskMetrics) int64 { return tm.OutputRecords })
}
