package mapreduce

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestMetricsJSONRoundTrip: Marshal → Unmarshal reproduces the value,
// and re-marshalling yields identical bytes (the layout is
// deterministic, so metrics.json artifacts diff cleanly).
func TestMetricsJSONRoundTrip(t *testing.T) {
	m := &Metrics{
		Job: "s2-pk-self",
		MapTasks: []TaskMetrics{{
			Cost: 5 * time.Millisecond, InputRecords: 10, InputBytes: 1000,
			OutputRecords: 20, OutputBytes: 2000,
			PartitionBytes: []int64{900, 1100},
			Locations:      []int{0, 2}, PeakMemory: 1 << 16,
			Attempts: 2, AttemptCosts: []time.Duration{time.Millisecond, 5 * time.Millisecond},
		}},
		ReduceTasks: []TaskMetrics{{
			Cost: 7 * time.Millisecond, Attempts: 1, Worker: "w1",
		}},
		SideBytes: 64,
		Counters:  map[string]int64{"stage2.pairs": 42},
	}
	first, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Metrics
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, &back) {
		t.Fatalf("round trip changed the value:\n%+v\nvs\n%+v", m, &back)
	}
	second, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("re-marshalling differs:\n%s\nvs\n%s", first, second)
	}
}

// TestMetricsJSONStableTags locks the schema-stable field names: a tag
// rename is an incompatible schema change and must bump
// trace.SchemaVersion instead of sliding in silently.
func TestMetricsJSONStableTags(t *testing.T) {
	b, err := json.Marshal(&Metrics{
		Job:       "j",
		MapTasks:  []TaskMetrics{{Cost: time.Millisecond, Attempts: 1}},
		SideBytes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"job", "map_tasks", "reduce_tasks", "side_bytes"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("Metrics JSON missing stable key %q (got %s)", key, b)
		}
	}
	task := doc["map_tasks"].([]any)[0].(map[string]any)
	for _, key := range []string{"cost_ns", "in_recs", "in_bytes", "out_recs", "out_bytes", "attempts"} {
		if _, ok := task[key]; !ok {
			t.Errorf("TaskMetrics JSON missing stable key %q (got %s)", key, b)
		}
	}
}
