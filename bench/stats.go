package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) put(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// print writes one "name value unit" line per metric, sorted by name.
func (m metrics) print() {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank method.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(nearestRank(len(sorted), p), 1)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples.
func nearestRank(n int, p float64) int {
	return int(math.Ceil(float64(n) * p / 100))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles tail may report, highest first.
var tailLadder = []float64{99, 95, 90, 75}

// tail returns the highest percentile of the ladder that has at least
// ten samples beyond it, and which percentile that was. With fewer than
// the 40 samples p75 needs, it falls back to the median (pct 50).
func tail(samples []float64) (value, pct float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	for _, p := range tailLadder {
		if len(s)-nearestRank(len(s), p) >= 10 {
			return percentile(s, p), p
		}
	}
	return median(s), 50
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// childrenPeakRSSMB is the largest resident set among the child
// processes this process has waited for (the distrib workers).
func childrenPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// totalAllocMB is the cumulative bytes the Go heap has allocated.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}
