//go:build !linux

package mapreduce

import "time"

// threadCPUTime has no per-thread clock to read here; task costs are
// wall time.
func threadCPUTime() (time.Duration, bool) { return 0, false }
