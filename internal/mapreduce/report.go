package mapreduce

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Report renders a human-readable job summary, in the spirit of Hadoop's
// job-completion report: task counts, data volumes, skew, retries and
// counters. Tools print it under a verbose flag.
func (m *Metrics) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "job %s\n", m.Job)

	mapAgg := aggregate(m.MapTasks)
	redAgg := aggregate(m.ReduceTasks)
	fmt.Fprintf(&b, "  map:    %4d tasks  in %s/%s recs/bytes  out %s/%s  cost total %v (max %v)\n",
		len(m.MapTasks), count(mapAgg.inRecs), bytesH(mapAgg.inBytes),
		count(mapAgg.outRecs), bytesH(mapAgg.outBytes), mapAgg.cost.Round(time.Microsecond),
		mapAgg.maxCost.Round(time.Microsecond))
	fmt.Fprintf(&b, "  reduce: %4d tasks  in %s/%s recs/bytes  out %s/%s  cost total %v (max %v)\n",
		len(m.ReduceTasks), count(redAgg.inRecs), bytesH(redAgg.inBytes),
		count(redAgg.outRecs), bytesH(redAgg.outBytes), redAgg.cost.Round(time.Microsecond),
		redAgg.maxCost.Round(time.Microsecond))
	fmt.Fprintf(&b, "  shuffle: %s total", bytesH(m.TotalShuffleBytes()))
	if sh := m.ShufflePerReduce(); len(sh) > 0 {
		min, max := sh[0], sh[0]
		for _, v := range sh[1:] {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		fmt.Fprintf(&b, "  (per reducer min %s / max %s)", bytesH(min), bytesH(max))
	}
	b.WriteByte('\n')
	if m.SideBytes > 0 {
		fmt.Fprintf(&b, "  side files broadcast: %s\n", bytesH(m.SideBytes))
	}
	if retried := mapAgg.retried + redAgg.retried; retried > 0 {
		fmt.Fprintf(&b, "  task retries: %d task(s) re-executed, %d failed attempt(s), %v wasted\n",
			retried, mapAgg.extraAttempts+redAgg.extraAttempts,
			(mapAgg.wasted + redAgg.wasted).Round(time.Microsecond))
	}
	if len(m.Counters) > 0 {
		names := make([]string, 0, len(m.Counters))
		for n := range m.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString("  counters:\n")
		for _, n := range names {
			fmt.Fprintf(&b, "    %-28s %d\n", n, m.Counters[n])
		}
	}
	return b.String()
}

type taskAgg struct {
	inRecs, inBytes, outRecs, outBytes int64
	cost, maxCost                      time.Duration
	retried, extraAttempts             int
	wasted                             time.Duration
}

func aggregate(tasks []TaskMetrics) taskAgg {
	var a taskAgg
	for _, t := range tasks {
		a.inRecs += t.InputRecords
		a.inBytes += t.InputBytes
		a.outRecs += t.OutputRecords
		a.outBytes += t.OutputBytes
		a.cost += t.Cost
		if t.Cost > a.maxCost {
			a.maxCost = t.Cost
		}
		if t.Attempts > 1 {
			a.retried++
			a.extraAttempts += t.Attempts - 1
			for _, c := range t.AttemptCosts[:len(t.AttemptCosts)-1] {
				a.wasted += c
			}
		}
	}
	return a
}

func count(n int64) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.0fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

func bytesH(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
