package main

// spec declares one metric: BENCHMARK.json is generated from these lists
// (bench -print-spec), and every run's output is checked against them.
type spec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is the measured section the driver asks for. 4 + 22 x 4 runs
// must fit, with set-up, restarts and two builds, in 3420 s: ~31 s a run.
const runSeconds = 25

// endToEndSpecs are reported by every workload on every untraced run. A
// bound is the share of the parent's median a metric may worsen by: three
// times the widest spread (quartile distance over median) any workload
// showed across ten seeds, which on this sandbox is the contract's largest
// for everything but the resident set.
var endToEndSpecs = []spec{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_p50_ms", "ms", "lower", 0.25},
	{"range_p50_ms", "ms", "lower", 0.25},
	{"knn_p50_ms", "ms", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.20},
	{"knn_hit_rate", "ratio", "higher", 0.25},
	{"range_kl", "nats", "lower", 0.25},
}

// perLayerSpecs are reported by every workload on every traced run; a
// layer a workload does not use reports 0. They carry no bound.
var perLayerSpecs = []spec{
	{Name: "server.decode_ms_per_batch", Unit: "ms", Better: "lower"},
	{Name: "server.encode_us_per_result", Unit: "us", Better: "lower"},
	{Name: "server.http_floor_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_ms_ingest", Unit: "ms", Better: "lower"},
	{Name: "server.handler_ms_range", Unit: "ms", Better: "lower"},
	{Name: "server.handler_ms_knn", Unit: "ms", Better: "lower"},
	{Name: "server.ingest_p50_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "server.range_p50_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "server.knn_p50_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "server.ingest_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "server.range_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "server.knn_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "server.ingest_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.range_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.knn_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.occupancy_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.ingest_objsec_per_s", Unit: "obj.s/s", Better: "higher"},
	{Name: "server.bytes_in_per_batch", Unit: "bytes", Better: "lower"},
	{Name: "server.bytes_out_per_query", Unit: "bytes", Better: "lower"},
	{Name: "server.shed_total", Unit: "count", Better: "lower"},
	{Name: "server.degraded_entered", Unit: "count", Better: "lower"},

	{Name: "ingest.reorder_offer_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "ingest.dropped_readings", Unit: "count", Better: "lower"},
	{Name: "ingest.pending_readings", Unit: "count", Better: "lower"},

	{Name: "collector.ingest_second_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "collector.events_per_stream_s", Unit: "1/s", Better: "lower"},

	{Name: "wal.append_us_per_record", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsyncs_total", Unit: "count", Better: "lower"},
	{Name: "wal.retries_total", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_reading", Unit: "bytes", Better: "lower"},
	{Name: "wal.snapshot_write_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.snapshot_bytes", Unit: "bytes", Better: "lower"},
	{Name: "wal.replay_ms_per_record", Unit: "ms", Better: "lower"},

	{Name: "engine.ingest_call_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.sharded_ingest_call_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.router_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "engine.preprocess_ms_per_range", Unit: "ms", Better: "lower"},
	{Name: "engine.preprocess_ms_per_knn", Unit: "ms", Better: "lower"},
	{Name: "engine.candidates_per_range", Unit: "count", Better: "lower"},
	{Name: "engine.candidates_per_knn", Unit: "count", Better: "lower"},
	{Name: "engine.alloc_bytes_per_ingest", Unit: "bytes", Better: "lower"},
	{Name: "engine.alloc_bytes_per_query", Unit: "bytes", Better: "lower"},
	{Name: "engine.allocs_per_query", Unit: "count", Better: "lower"},

	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.evictions_per_stream_s", Unit: "1/s", Better: "lower"},
	{Name: "cache.get_put_us", Unit: "us", Better: "lower"},

	{Name: "particle.advance_us_per_object_step", Unit: "us", Better: "lower"},
	{Name: "particle.run_full_us_per_object", Unit: "us", Better: "lower"},
	{Name: "particle.steps_per_query", Unit: "count", Better: "lower"},
	{Name: "particle.predict_share", Unit: "ratio", Better: "lower"},
	{Name: "particle.reweight_share", Unit: "ratio", Better: "lower"},
	{Name: "particle.resample_share", Unit: "ratio", Better: "lower"},

	{Name: "anchor.snap_us_per_object", Unit: "us", Better: "lower"},
	{Name: "anchor.table_set_us_per_object", Unit: "us", Better: "lower"},

	{Name: "query.objectinfos_us", Unit: "us", Better: "lower"},
	{Name: "query.prune_range_us", Unit: "us", Better: "lower"},
	{Name: "query.prune_knn_us", Unit: "us", Better: "lower"},
	{Name: "query.pruned_ratio_range", Unit: "ratio", Better: "lower"},
	{Name: "query.pruned_ratio_knn", Unit: "ratio", Better: "lower"},
	{Name: "query.evaluate_range_us", Unit: "us", Better: "lower"},
	{Name: "query.evaluate_knn_us", Unit: "us", Better: "lower"},

	{Name: "cluster.rpc_rtt_us", Unit: "us", Better: "lower"},
	{Name: "cluster.forward_ingest_ms_per_batch", Unit: "ms", Better: "lower"},
	{Name: "cluster.gob_bytes_per_batch", Unit: "bytes", Better: "lower"},
	{Name: "cluster.evaluate_rpc_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.forward_retries_total", Unit: "count", Better: "lower"},

	{Name: "proc.server_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "proc.gc_pause_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.heap_inuse_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.recovery_s", Unit: "s", Better: "lower"},

	{Name: "loadgen.lateness_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.gen_stall_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.build_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.host_slowdown", Unit: "ratio", Better: "lower"},

	{Name: "budget.ingest_unexplained_pct", Unit: "%", Better: "lower"},
	{Name: "budget.range_unexplained_pct", Unit: "%", Better: "lower"},
	{Name: "budget.knn_unexplained_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.server_default_overhead_pct", Unit: "%", Better: "lower"},
}

// benchmarkJSON is the document at the repository root.
func benchmarkJSON() map[string]any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []wl
	for _, w := range workloads {
		ws = append(ws, wl{w.name, w.why})
	}
	return map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  endToEndSpecs,
		"per_layer":   perLayerSpecs, // no bound: the key is left out
	}
}

// checkAgainstSpecs reports metrics a run printed that the specs do not
// declare, and declared ones it did not print.
func checkAgainstSpecs(m map[string]metric, specs []spec) []string {
	var problems []string
	want := map[string]spec{}
	for _, s := range specs {
		want[s.Name] = s
		got, ok := m[s.Name]
		switch {
		case !ok:
			problems = append(problems, "missing metric "+s.Name)
		case got.Unit != s.Unit:
			problems = append(problems, "metric "+s.Name+" has unit "+got.Unit+", declared "+s.Unit)
		}
	}
	for name := range m {
		if _, ok := want[name]; !ok {
			problems = append(problems, "undeclared metric "+name)
		}
	}
	return problems
}
