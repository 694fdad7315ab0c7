package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// traced is the traced run of one workload: a live section with the
// server's tracing off (counts, percentiles and the end-to-end medians the
// budget is reconciled against), a second live section with the server's
// tracing at the product default (what that default costs), then the
// in-process passes that put a span around every layer call. End-to-end
// metrics are never taken from here.
func (b *bench) traced(w workload, seed int64) (map[string]metric, *liveResult, error) {
	half := liveOpts{seconds: b.cfg.seconds / 2, setups: 1, restarts: 5, workDir: b.workDir, floor: true}
	live, err := runLive(b.l, w, seed, half)
	if err != nil || live.invalid != "" {
		return nil, live, err
	}
	half.serverTrace, half.restarts = true, 0
	withTrace, err := runLive(b.l, w, seed, half)
	if err != nil {
		return nil, nil, err
	}
	if withTrace.invalid != "" {
		return nil, withTrace, nil
	}

	dir, err := os.MkdirTemp(b.workDir, "layers-"+w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	lp, err := runLayerPasses(w, seed, dir)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: in-process passes: %w", w.name, err)
	}
	tracePath := filepath.Join(b.cfg.outDir, "trace-"+w.name+".json")
	if err := lp.rec.writeChrome(tracePath); err != nil {
		return nil, nil, err
	}

	m := perLayer(w, live, withTrace, lp, b.buildS)
	printBudget(os.Stdout, w, live, lp)
	fmt.Printf("%s: %d spans written to %s\n", w.name, len(lp.rec.spans), tracePath)
	// Failures of either live section count.
	live.absorb(withTrace)
	live.incorrect = append(live.incorrect, withTrace.incorrect...)
	return m, live, nil
}

// layerPasses is everything the in-process half produced.
type layerPasses struct {
	rec      *recorder
	traced   replayOut
	untraced replayOut
	alone    *layerTimes
	rpcPing  []float64            // HTTPTransport.Send of an OpPing, µs
	byPath   map[string][]float64 // span durations in µs by "root/name"
	self     map[string][]time.Duration
}

func runLayerPasses(w workload, seed int64, dir string) (*layerPasses, error) {
	// The layers run here under the collector setting the server runs them
	// under, not the harness's own.
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	in := genProbeInputs(w, seed)
	lp := &layerPasses{rec: &recorder{}}

	// Untraced first: the composite calls the handlers make, no spans.
	t, err := buildTarget(w, seed, in, filepath.Join(dir, "untraced"))
	if err != nil {
		return nil, err
	}
	lp.untraced, err = replay(t, in, nil)
	t.close()
	if err != nil {
		return nil, err
	}

	t, err = buildTarget(w, seed, in, filepath.Join(dir, "traced"))
	if err != nil {
		return nil, err
	}
	lp.traced, err = replay(t, in, lp.rec)
	if err == nil && t.peer != nil {
		lp.rpcPing, err = pingPeer(t.peer, lp.rec)
	}
	t.close()
	if err != nil {
		return nil, err
	}

	if lp.alone, err = standalone(w, seed, in, dir, lp.rec); err != nil {
		return nil, err
	}
	lp.byPath = lp.rec.durationsByPath()
	lp.self = lp.rec.selfTimes()
	return lp, nil
}

// durationsByPath keys each span's duration (µs) by "root/name" — the same
// stage name means different work under a range and under a kNN query — and
// roots by their own name.
func (r *recorder) durationsByPath() map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range r.spans {
		key := s.name
		if s.parent >= 0 {
			key = r.spans[s.parent].name + "/" + s.name
		}
		out[key] = append(out[key], float64(s.end.Sub(s.start))/float64(time.Microsecond))
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// zeroNaN reports absent measurements (an empty sample) as 0.
func zeroNaN(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// step is one layer step on an op's blocking path, with its p50.
type step struct {
	label string
	ms    float64
}

// blockingPath lists, for one op, the layer steps a request waits for, as
// (label, p50 in ms). A node runs a stage's local half and its peer RPC side
// by side, but every half is CPU-bound and parallel inside, and on the
// 2-core sandbox the halves share the cores: their sum, not the larger,
// is what the request waits for here. With cores to spare it would be the
// larger.
func blockingPath(w workload, kind opKind, live *liveResult, lp *layerPasses) []step {
	p50 := func(path string) float64 { return zeroNaN(median(lp.byPath[path])) / 1000 }
	steps := []step{{"http floor", live.httpFloorUs / 1000}}
	root := kind.String()
	add := func(label, name string) { steps = append(steps, step{label, p50(root + "/" + name)}) }
	cluster := w.nodes > 1
	if kind == opIngest {
		add("decode", "decode")
		if cluster {
			add("forward (peer ingest)", "forward")
		}
		add("engine ingest", "engine-ingest")
		add("encode ack", "encode-ack")
		return steps
	}
	add("gather", "gather")
	if cluster {
		add("gather (peer RPC)", "forward-gather")
	}
	add("prune", "prune")
	add("evaluate (preprocess)", "evaluate")
	if cluster {
		add("evaluate (peer RPC)", "forward-evaluate")
		add("table merge", "table-merge")
	}
	add("merge (Algorithm 3/4)", "merge")
	add("encode", "encode")
	return steps
}

// handlerMeanMs is the server's own account of one route on node 0: the mean
// of its repro_http_request_seconds histogram over the live section, which
// spans the whole handler (body read and decode, lock wait, engine, encode).
// Set against the end-to-end p50 it splits what the layers leave unexplained
// into time inside the handler and time on the way to and from it.
func handlerMeanMs(live *liveResult, kind opKind) (float64, int) {
	if len(live.promDelta) == 0 {
		return 0, 0
	}
	label := `path="/` + kind.String() + `"`
	d := live.promDelta[0]
	n := d.sum("repro_http_request_seconds_count", label)
	return ratio(d.sum("repro_http_request_seconds_sum", label), n) * 1000, int(n)
}

// unexplainedPct is the share of the end-to-end p50 the blocking path's
// layer p50s do not account for.
func unexplainedPct(w workload, kind opKind, live *liveResult, lp *layerPasses) float64 {
	e2e := percentile(live.lat[kind], 0.5)
	sum := 0.0
	for _, s := range blockingPath(w, kind, live, lp) {
		sum += s.ms
	}
	return zeroNaN((e2e - sum) / e2e * 100)
}

// printBudget prints the per-op budget table: layer p50s along the blocking
// path against the live end-to-end p50.
func printBudget(out *os.File, w workload, live *liveResult, lp *layerPasses) {
	for _, kind := range []opKind{opIngest, opRange, opKNN} {
		e2e := percentile(live.lat[kind], 0.5)
		fmt.Fprintf(out, "%s budget, %s: end-to-end p50 %.3f ms (n=%d)\n", w.name, kind, e2e, len(live.lat[kind]))
		sum := 0.0
		for _, s := range blockingPath(w, kind, live, lp) {
			sum += s.ms
			fmt.Fprintf(out, "    %-24s %8.3f ms  %5.1f %%\n", s.label, s.ms, s.ms/e2e*100)
		}
		fmt.Fprintf(out, "    %-24s %8.3f ms  %5.1f %%\n", "unexplained", e2e-sum, (e2e-sum)/e2e*100)
		var glue []float64
		for _, d := range lp.self[kind.String()] {
			glue = append(glue, float64(d)/float64(time.Millisecond))
		}
		fmt.Fprintf(out, "    (replayed request's self time, the harness's own glue between the calls: p50 %.3f ms)\n", zeroNaN(median(glue)))
		h, n := handlerMeanMs(live, kind)
		fmt.Fprintf(out, "    (the server's own handler time averaged %.3f ms over %d requests: %.3f ms of the p50 is outside the handler)\n", h, n, e2e-h)
	}
}

// perLayer assembles the per-layer metrics of one traced run.
func perLayer(w workload, live, withTrace *liveResult, lp *layerPasses, buildS float64) map[string]metric {
	m := map[string]metric{}
	set := func(name, unit string, v float64, n int) { m[name] = metric{Value: zeroNaN(v), Unit: unit, n: n} }
	us := func(path string) (float64, int) { return median(lp.byPath[path]), len(lp.byPath[path]) }
	a := lp.alone

	// Counter deltas over the tracing-off live section, summed over nodes.
	var d promText = promText{}
	for _, pd := range live.promDelta {
		for k, v := range pd {
			d[k] += v
		}
	}
	heap := 0.0
	for _, pa := range live.promAfter {
		heap += pa.sum("repro_go_heap_inuse_bytes")
	}
	filtersRun, filtersResumed, dropped, pending := 0, 0, 0, 0
	for i := range live.after {
		filtersRun += live.after[i].Work.FiltersRun - live.before[i].Work.FiltersRun
		filtersResumed += live.after[i].Work.FiltersResumed - live.before[i].Work.FiltersResumed
		dropped += live.after[i].Work.ReadingsDropped
		pending += live.after[i].Work.ReadingsPending
	}
	queries := len(live.lat[opRange]) + len(live.lat[opKNN]) + len(live.lat[opOccupancy])
	wall := live.wall.Seconds()

	// server
	v, n := us("ingest/decode")
	set("server.decode_ms_per_batch", "ms", v/1000, n)
	enc := append(append([]float64(nil), lp.byPath["range/encode"]...), lp.byPath["knn/encode"]...)
	total := 0.0
	for _, e := range enc {
		total += e
	}
	set("server.encode_us_per_result", "us", ratio(total, float64(lp.traced.results)), lp.traced.results)
	set("server.http_floor_us", "us", live.httpFloorUs, 100)
	for name, v := range live.tails() {
		m[name] = v
	}
	set("server.occupancy_p50_ms", "ms", percentile(live.lat[opOccupancy], 0.5), len(live.lat[opOccupancy]))
	set("server.ingest_objsec_per_s", "obj.s/s", ratio(float64(w.objects*live.streamSeconds), wall), live.streamSeconds)
	set("server.bytes_in_per_batch", "bytes", ratio(float64(live.bytesIn), float64(len(live.lat[opIngest]))), 0)
	set("server.bytes_out_per_query", "bytes", ratio(float64(live.bytesOut), float64(len(live.lat[opRange])+len(live.lat[opKNN]))), 0)
	for _, k := range []opKind{opIngest, opRange, opKNN} {
		ms, n := handlerMeanMs(live, k)
		set("server.handler_ms_"+k.String(), "ms", ms, n)
	}
	set("server.shed_total", "count", d.sum("repro_admission_shed_total"), 0)
	set("server.degraded_entered", "count", d.sum("repro_degraded_transitions_total"), 0)

	// ingest, collector
	set("ingest.reorder_offer_us_per_batch", "us", median(a.reorderOffer), len(a.reorderOffer))
	set("ingest.dropped_readings", "count", float64(dropped), 0)
	set("ingest.pending_readings", "count", float64(pending), 0)
	set("collector.ingest_second_us_per_batch", "us", median(a.collect), len(a.collect))
	set("collector.events_per_stream_s", "1/s", ratio(float64(a.events), float64(a.streamSeconds)), a.streamSeconds)

	// wal
	set("wal.append_us_per_record", "us", median(a.walAppend), len(a.walAppend))
	set("wal.fsync_us", "us", median(a.walFsync), len(a.walFsync))
	set("wal.fsyncs_total", "count", d.sum("repro_wal_syncs_total"), 0)
	set("wal.retries_total", "count", d.sum("repro_wal_retries_total"), 0)
	set("wal.bytes_per_reading", "bytes", ratio(float64(a.walBytes), float64(a.walReadings)), a.walReadings)
	set("wal.snapshot_write_ms", "ms", a.snapshotMs, 1)
	set("wal.snapshot_bytes", "bytes", float64(a.snapshotBytes), 0)
	set("wal.replay_ms_per_record", "ms", a.walReplayMs, a.streamSeconds)

	// engine
	set("engine.ingest_call_ms", "ms", median(a.engineIngestMs), len(a.engineIngestMs))
	set("engine.sharded_ingest_call_ms", "ms", median(a.shardedIngestMs), len(a.shardedIngestMs))
	set("engine.router_overhead_pct", "%", (ratio(median(a.routerIngestMs), median(a.engineIngestMs))-1)*100, len(a.routerIngestMs))
	v, n = us("range/evaluate")
	set("engine.preprocess_ms_per_range", "ms", v/1000, n)
	v, n = us("knn/evaluate")
	set("engine.preprocess_ms_per_knn", "ms", v/1000, n)
	set("engine.candidates_per_range", "count", ratio(float64(lp.traced.candRange), float64(lp.traced.nRange)), lp.traced.nRange)
	set("engine.candidates_per_knn", "count", ratio(float64(lp.traced.candKNN), float64(lp.traced.nKNN)), lp.traced.nKNN)
	nq := lp.untraced.nRange + lp.untraced.nKNN
	set("engine.alloc_bytes_per_ingest", "bytes", ratio(float64(lp.untraced.allocIngest), float64(lp.untraced.nIngest)), lp.untraced.nIngest)
	set("engine.alloc_bytes_per_query", "bytes", ratio(float64(lp.untraced.allocQuery), float64(nq)), nq)
	set("engine.allocs_per_query", "count", ratio(float64(lp.untraced.mallocQuery), float64(nq)), nq)

	// cache
	set("cache.hit_ratio", "ratio", ratio(float64(filtersResumed), float64(filtersRun+filtersResumed)), filtersRun+filtersResumed)
	set("cache.evictions_per_stream_s", "1/s", ratio(d.sum("repro_cache_events_total", `event="eviction"`), float64(live.streamSeconds)), live.streamSeconds)
	set("cache.get_put_us", "us", median(a.clone2), len(a.clone2))

	// particle, anchor
	set("particle.advance_us_per_object_step", "us", median(a.advance), len(a.advance))
	set("particle.run_full_us_per_object", "us", median(a.runFull), len(a.runFull))
	set("particle.steps_per_query", "count", ratio(d.sum("repro_filter_particle_steps_total"), float64(queries)), queries)
	stages := float64(a.predict + a.reweight + a.rs)
	set("particle.predict_share", "ratio", ratio(float64(a.predict), stages), len(a.runFull))
	set("particle.reweight_share", "ratio", ratio(float64(a.reweight), stages), len(a.runFull))
	set("particle.resample_share", "ratio", ratio(float64(a.rs), stages), len(a.runFull))
	set("anchor.snap_us_per_object", "us", median(a.snap), len(a.snap))
	set("anchor.table_set_us_per_object", "us", median(a.tableSet), len(a.tableSet))

	// query
	set("query.objectinfos_us", "us", median(a.objectInfos), len(a.objectInfos))
	v, n = us("range/prune")
	set("query.prune_range_us", "us", v, n)
	v, n = us("knn/prune")
	set("query.prune_knn_us", "us", v, n)
	set("query.pruned_ratio_range", "ratio", ratio(float64(lp.traced.candRange), float64(lp.traced.knownRange)), lp.traced.nRange)
	set("query.pruned_ratio_knn", "ratio", ratio(float64(lp.traced.candKNN), float64(lp.traced.knownKNN)), lp.traced.nKNN)
	v, n = us("range/merge")
	set("query.evaluate_range_us", "us", v, n)
	v, n = us("knn/merge")
	set("query.evaluate_knn_us", "us", v, n)

	// cluster: zero on single-node shapes.
	set("cluster.rpc_rtt_us", "us", median(lp.rpcPing), len(lp.rpcPing))
	v, n = us("ingest/forward")
	set("cluster.forward_ingest_ms_per_batch", "ms", v/1000, n)
	set("cluster.gob_bytes_per_batch", "bytes", ratio(float64(lp.traced.gobBytes), float64(lp.traced.forwardedBatchN)), lp.traced.forwardedBatchN)
	fe := append(append([]float64(nil), lp.byPath["range/forward-evaluate"]...), lp.byPath["knn/forward-evaluate"]...)
	set("cluster.evaluate_rpc_ms", "ms", median(fe)/1000, len(fe))
	set("cluster.forward_retries_total", "count", d.sum("repro_peer_errors_total"), 0)

	// proc, loadgen
	set("proc.server_cpu_share", "ratio", ratio(live.serverCPU, wall), 0)
	les, cum := d.buckets("repro_go_gc_pause_seconds")
	set("proc.gc_pause_p99_ms", "ms", histQuantile(les, cum, 0.99)*1000, int(d.sum("repro_go_gc_pause_seconds_count")))
	set("proc.heap_inuse_mb", "MB", heap/(1<<20), 0)
	set("proc.rss_peak_mb", "MB", live.rssPeakMB, 0)
	set("loadgen.lateness_p99_ms", "ms", percentile(live.latenessMs, 0.99), len(live.latenessMs))
	set("loadgen.gen_stall_ms", "ms", live.genStallMs, 0)
	set("loadgen.cpu_share", "ratio", ratio(live.selfCPU, wall), 0)
	set("loadgen.build_s", "s", buildS, 0)

	// budget, tracing overheads
	set("budget.ingest_unexplained_pct", "%", unexplainedPct(w, opIngest, live, lp), 0)
	set("budget.range_unexplained_pct", "%", unexplainedPct(w, opRange, live, lp), 0)
	set("budget.knn_unexplained_pct", "%", unexplainedPct(w, opKNN, live, lp), 0)
	set("trace.overhead_pct", "%", (ratio(float64(lp.traced.total), float64(lp.untraced.total))-1)*100, 0)
	sumP50 := func(r *liveResult) float64 {
		return (percentile(r.lat[opIngest], 0.5) + percentile(r.lat[opRange], 0.5) + percentile(r.lat[opKNN], 0.5)) / r.slowdown
	}
	set("trace.server_default_overhead_pct", "%", (ratio(sumP50(withTrace), sumP50(live))-1)*100, 0)
	return m
}
