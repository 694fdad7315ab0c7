package main

import (
	"fmt"
	"io"
	"sort"
)

// endToEnd assembles the metrics a user of the system would see. Every
// workload reports every one of them, and none can be zero. Timings are in
// reference units: wall time over the host's slowdown while it was taken.
func (r *liveResult) endToEnd() map[string]metric {
	m := map[string]metric{
		"setup_s":      {Value: median(r.setupS) / r.setupSlowdown, Unit: "s", n: len(r.setupS)},
		"rss_mb":       {Value: median(r.rssMB), Unit: "MB", n: len(r.rssMB)},
		"knn_hit_rate": {Value: mean(r.hit), Unit: "ratio", n: len(r.hit)},
		"range_kl":     {Value: mean(r.kl), Unit: "nats", n: len(r.kl)},
	}
	for _, k := range []opKind{opIngest, opRange, opKNN} {
		m[k.String()+"_p50_ms"] = metric{Value: percentile(r.lat[k], 0.5) / r.slowdown, Unit: "ms", n: len(r.lat[k])}
	}
	return m
}

// tails are the ungated wall-clock figures: the host's slowdown, the medians
// as the clock read them, and the tails and restart times, which on this
// sandbox move 15-45 % between runs of one commit, too much to hold a bound.
// They are printed beside the end-to-end metrics and carried as per-layer
// metrics.
func (r *liveResult) tails() map[string]metric {
	m := map[string]metric{
		"proc.recovery_s":       {Value: zeroNaN(median(r.recoveryS)), Unit: "s", n: len(r.recoveryS)},
		"loadgen.host_slowdown": {Value: r.slowdown, Unit: "ratio"},
	}
	for _, k := range []opKind{opIngest, opRange, opKNN} {
		m["server."+k.String()+"_p50_wall_ms"] = metric{Value: zeroNaN(percentile(r.lat[k], 0.5)), Unit: "ms", n: len(r.lat[k])}
		m["server."+k.String()+"_p95_ms"] = metric{Value: zeroNaN(windowedP95(r.lat[k])), Unit: "ms", n: len(r.lat[k])}
		m["server."+k.String()+"_p99_ms"] = metric{Value: zeroNaN(percentile(r.lat[k], 0.99)), Unit: "ms", n: len(r.lat[k])}
	}
	return m
}

// printMetrics lists metrics by name with unit and, where there is one,
// the sample count.
func printMetrics(w io.Writer, workload string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := m[n]
		if v.n > 0 {
			fmt.Fprintf(w, "%-16s %-36s %14.4f %-8s n=%d\n", workload, n, v.Value, v.Unit, v.n)
		} else {
			fmt.Fprintf(w, "%-16s %-36s %14.4f %-8s\n", workload, n, v.Value, v.Unit)
		}
	}
}
