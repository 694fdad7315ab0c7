package engine

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rfid"
	"repro/internal/sim"
)

// telemetrySystem builds a warmed-up system with a custom config tweak.
func telemetrySystem(t *testing.T, warmup int, tweak func(*Config)) *System {
	t.Helper()
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := DefaultConfig()
	cfg.Seed = 77
	if tweak != nil {
		tweak(&cfg)
	}
	sys := MustNew(plan, dep, cfg)
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 10
	tc.DwellMin, tc.DwellMax = 2, 8
	simulator := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, 1077)
	for i := 0; i < warmup; i++ {
		tm, raws := simulator.Step()
		sys.Ingest(tm, raws)
	}
	return sys
}

// TestStageHistogramsRecorded runs queries and checks the snap stage and
// both query kinds landed observations in the registry, and the particle-step
// counter moved. The filter reads no clock, so snap is the only stage the
// histogram has; asking the same question again in the same stream second
// neither steps nor snaps.
func TestStageHistogramsRecorded(t *testing.T) {
	sys := telemetrySystem(t, 60, nil)
	sys.RangeQuery(geom.RectWH(1, 2, 140, 32))
	sys.KNNQuery(geom.Pt(35, 12), 3)

	scrape := func() map[string]*obs.Family {
		t.Helper()
		sys.SyncMetrics()
		var buf bytes.Buffer
		if _, err := sys.Telemetry().Registry().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		fams, err := obs.ParseText(&buf)
		if err != nil {
			t.Fatalf("exposition does not lint: %v", err)
		}
		return fams
	}
	stageCounts := func(fams map[string]*obs.Family) map[string]float64 {
		t.Helper()
		stage := fams["repro_filter_stage_seconds"]
		if stage == nil {
			t.Fatal("repro_filter_stage_seconds missing")
		}
		counts := map[string]float64{}
		for _, s := range stage.Samples {
			if s.Name == "repro_filter_stage_seconds_count" {
				counts[s.Labels["stage"]] = s.Value
			}
		}
		return counts
	}
	steps := func() uint64 { return sys.Telemetry().particleSteps.Value() }
	fams := scrape()
	counts := stageCounts(fams)
	if len(counts) != 1 || counts["snap"] == 0 {
		t.Errorf("stage counts = %v, want observations for snap only", counts)
	}
	if steps() == 0 {
		t.Error("repro_filter_particle_steps_total did not move")
	}
	before := steps()
	sys.RangeQuery(geom.RectWH(1, 2, 140, 32))
	if again := stageCounts(scrape()); again["snap"] != counts["snap"] || steps() != before {
		t.Errorf("a repeated query in the same second snapped %v more times and stepped %d more particles, want none",
			again["snap"]-counts["snap"], steps()-before)
	}

	q := fams["repro_query_seconds"]
	if q == nil {
		t.Fatal("repro_query_seconds missing")
	}
	qc := map[string]float64{}
	for _, s := range q.Samples {
		if s.Name == "repro_query_seconds_count" {
			qc[s.Labels["kind"]] = s.Value
		}
	}
	if qc["range"] != 1 || qc["knn"] != 1 {
		t.Errorf("query counts = %v, want one range and one knn", qc)
	}
}

// TestTraceRingMatchesRunCounters cross-checks the trace ring against both
// the engine's Stats counters and the runs metric: every filter execution
// leaves exactly one trace, split by mode the same way everywhere.
func TestTraceRingMatchesRunCounters(t *testing.T) {
	sys := telemetrySystem(t, 45, nil)
	sys.RangeQuery(geom.RectWH(1, 2, 140, 32))
	sys.KNNQuery(geom.Pt(35, 12), 3) // second query resumes from cache

	st := sys.Stats()
	tel := sys.Telemetry()
	if st.FiltersRun == 0 {
		t.Fatal("no full filter runs recorded")
	}
	traces := tel.Trace.Snapshot()
	var full, resumed int
	for _, tr := range traces {
		if tr.Resumed {
			resumed++
		} else {
			full++
		}
		if tr.Particles <= 0 {
			t.Errorf("trace for object %d has %d particles", tr.Object, tr.Particles)
		}
		if tr.ESS <= 0 || float64(tr.Particles) < tr.ESS-1e-9 {
			t.Errorf("trace ESS %v outside (0, %d]", tr.ESS, tr.Particles)
		}
	}
	if full != st.FiltersRun || resumed != st.FiltersResumed {
		t.Errorf("trace ring has %d full + %d resumed, stats say %d + %d",
			full, resumed, st.FiltersRun, st.FiltersResumed)
	}
	if got := tel.runsFull.Value(); got != uint64(st.FiltersRun) {
		t.Errorf("runs_total{mode=full} = %d, stats %d", got, st.FiltersRun)
	}
	if got := tel.runsResumed.Value(); got != uint64(st.FiltersResumed) {
		t.Errorf("runs_total{mode=resumed} = %d, stats %d", got, st.FiltersResumed)
	}
	if int(tel.Trace.Total()) != len(traces) && len(traces) != tel.Trace.Cap() {
		t.Errorf("ring total %d disagrees with snapshot %d", tel.Trace.Total(), len(traces))
	}
}

// TestSlowQueryLog sets a threshold of one nanosecond so every query is
// slow, and checks the log and counter fire.
func TestSlowQueryLog(t *testing.T) {
	sys := telemetrySystem(t, 30, func(c *Config) {
		c.SlowQueryThreshold = time.Nanosecond
	})
	sys.RangeQuery(geom.RectWH(1, 2, 140, 32))
	sys.KNNQuery(geom.Pt(35, 12), 3)

	tel := sys.Telemetry()
	if got := tel.slowQueries.Value(); got != 2 {
		t.Errorf("slow query counter = %d, want 2", got)
	}
	entries := tel.Slow.Snapshot()
	if len(entries) != 2 {
		t.Fatalf("slow log has %d entries, want 2", len(entries))
	}
	if entries[0].Kind != "range" || entries[1].Kind != "knn" {
		t.Errorf("slow log kinds = %q, %q", entries[0].Kind, entries[1].Kind)
	}
	for _, e := range entries {
		if e.Detail == "" || e.Micros < 0 {
			t.Errorf("malformed slow entry %+v", e)
		}
	}
}

// TestSlowQueryLogDisabled checks threshold 0 records latency histograms —
// occupancy's too — but never the slow log.
func TestSlowQueryLogDisabled(t *testing.T) {
	sys := telemetrySystem(t, 30, func(c *Config) {
		c.SlowQueryThreshold = 0
	})
	sys.RangeQuery(geom.RectWH(1, 2, 140, 32))
	sys.Occupancy()
	tel := sys.Telemetry()
	if got := tel.slowQueries.Value(); got != 0 {
		t.Errorf("slow counter = %d with disabled log", got)
	}
	if n := len(tel.Slow.Snapshot()); n != 0 {
		t.Errorf("slow log has %d entries with disabled log", n)
	}
	for _, k := range []QueryKind{KindRange, KindOccupancy} {
		if got := tel.query[k].Count(); got != 1 {
			t.Errorf("%s latency histogram count = %d, want 1", k, got)
		}
	}
}

// TestSyncMetricsMirrorsStats checks the scrape-time mirrors equal the
// authoritative engine accounting.
func TestSyncMetricsMirrorsStats(t *testing.T) {
	sys := telemetrySystem(t, 40, nil)
	// A rejected (late) batch and some invalid readings to populate drops.
	sys.Ingest(1, nil)
	sys.SyncMetrics()

	st := sys.Stats()
	tel := sys.Telemetry()
	if got := tel.ingested.Value(); got != uint64(st.ReadingsIngested) {
		t.Errorf("ingested mirror %d != stats %d", got, st.ReadingsIngested)
	}
	if got := tel.rejectedBatches.Value(); got != uint64(st.Ingest.LateBatches) {
		t.Errorf("rejected mirror %d != stats %d", got, st.Ingest.LateBatches)
	}
	if st.Ingest.LateBatches == 0 {
		t.Error("late batch not accounted")
	}
	for kind, c := range tel.dropped {
		if got, want := c.Value(), uint64(st.Ingest.Of(kind)); got != want {
			t.Errorf("dropped{%v} mirror %d != stats %d", kind, got, want)
		}
	}
	if got := tel.objectsKnown.Value(); got != float64(sys.Collector().NumObjects()) {
		t.Errorf("objects mirror %v != %d", got, sys.Collector().NumObjects())
	}
}

// TestCacheMetricsWired checks cache hits and misses flow into the registry
// counters alongside the cache's own stats.
func TestCacheMetricsWired(t *testing.T) {
	sys := telemetrySystem(t, 45, nil)
	sys.RangeQuery(geom.RectWH(1, 2, 140, 32))
	sys.RangeQuery(geom.RectWH(1, 2, 140, 32))

	hits, misses := sys.CacheStats()
	tel := sys.Telemetry()
	if got := tel.cacheHits.Value(); got != uint64(hits) {
		t.Errorf("cache hit counter %d != stats %d", got, hits)
	}
	if got := tel.cacheMisses.Value(); got != uint64(misses) {
		t.Errorf("cache miss counter %d != stats %d", got, misses)
	}
	if hits == 0 {
		t.Error("second identical query produced no cache hits")
	}
}
