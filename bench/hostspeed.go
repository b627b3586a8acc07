package main

import (
	"slices"
	"time"
)

// The recording host is a shared 2-core VM whose speed swings by up to
// 40 % for minutes at a time, with nothing running beside the benchmark,
// no steal time reported and no memory pressure: identical joins
// (alloc_mb equal to five digits) took 1.40–1.50 s in one run and
// 1.85–2.13 s in the next. No statistic over one run's joins removes
// that, so wall_s and setup_s are reported relative to a reference kernel
// timed in the same run. Over seven workload × time-window measurements
// this never widened the ten-seed spread of wall_s and usually cut it to
// between a half and a third (20.2 → 6.8 %, 15.0 → 5.0 %, 16.0 → 10.0 %,
// quiet window 5.0 → 5.1 %). With 25–40 set-ups a run it narrowed setup_s
// in nine of ten sets and shrank the shift between two ten-seed sets on
// all five workloads (self_dblp +23.2 → +10.9 %); with only nine set-ups
// a run it had widened it, the samples' own scatter being larger than the
// host's. It is not applied to the serve Match p99, which does not follow
// host speed: scaling widened it in both sets (2.4 → 3.5 %, 6.7 → 8.1 %).

// nominalKernelSeconds is about what referenceKernel takes on the recording
// host in its quiet state. Times are scaled by nominal ÷ measured, so on
// a quiet host they read as plain seconds.
const nominalKernelSeconds = 0.130

// kernelSink keeps the compiler from discarding the kernel's work.
var kernelSink uint64

// referenceKernel is a fixed piece of work that belongs to the benchmark
// and shares no code with the program: fill and sort 8 MB of integers,
// then allocate and touch 16 MB in 4 KB pieces — processor, memory
// bandwidth and the allocator, the resources a join leans on. How long it
// takes says how fast the host is running right now.
func referenceKernel() time.Duration {
	start := time.Now()
	const n = 1 << 20
	x := uint64(88172645463325252)
	v := make([]uint64, n)
	for i := range v {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = x
	}
	slices.Sort(v)
	pieces := make([][]byte, 4096)
	for i := range pieces {
		pieces[i] = make([]byte, 4096)
		pieces[i][i] = byte(v[i])
	}
	sum := v[n/2]
	for _, p := range pieces {
		sum += uint64(p[7])
	}
	kernelSink = sum
	return time.Since(start)
}

// hostFactor converts seconds measured in this run into seconds on a host
// running the reference kernel in its nominal time.
func hostFactor(kernelSeconds []float64) float64 {
	return nominalKernelSeconds / median(kernelSeconds)
}
