package engine

import (
	"context"
	"testing"
	"time"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/obs/trace"
	"repro/internal/rfid"
	"repro/internal/sim"
	"repro/internal/wal"
)

// spansByName groups a finished trace's spans: name -> set of shards that
// recorded it.
func spansByName(d trace.Done) map[string]map[int]bool {
	out := map[string]map[int]bool{}
	for _, sp := range d.Spans {
		if out[sp.Name] == nil {
			out[sp.Name] = map[int]bool{}
		}
		out[sp.Name][sp.Shard] = true
	}
	return out
}

// TestShardedTraceSpans drives a durable four-shard engine through a traced
// ingest stream and a traced kNN query, and asserts the span topology the
// tracing tentpole promises: ingest traces carry the reorder wait plus
// per-shard WAL append, fsync, and collect spans; query traces carry
// router-scoped gather/prune/merge plus one evaluate span per shard
// (zero-duration for shards with no candidates) and shard-attributed advance
// and snap spans.
func TestShardedTraceSpans(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := DefaultConfig()
	cfg.Seed = 91
	cfg.Shards = 4
	cfg.SlowQueryThreshold = time.Nanosecond // every query is "slow": the ring must fill
	cfg.Durability = DurabilityConfig{Dir: t.TempDir(), Fsync: wal.SyncAlways}
	sys, err := OpenSharded(plan, dep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), traceCfg120(), 77)

	tracer := trace.New(trace.Config{Sample: 1, Seed: 5})

	// Traced ingest: accumulate every delivery's spans on one trace so the
	// assertion does not depend on which exact second the reorder buffer
	// flushes.
	itc := tracer.Start("ingest")
	ictx := trace.With(context.Background(), itc)
	for i := 0; i < 25; i++ {
		tm, raws := world.Step()
		if err := sys.IngestContext(ictx, tm, raws); err != nil {
			t.Fatalf("IngestContext: %v", err)
		}
	}
	tracer.Finish(itc)
	sys.FlushIngest()

	ing := spansByName(tracer.Snapshot()[0])
	if len(ing["reorder"]) == 0 || !ing["reorder"][trace.RouterShard] {
		t.Errorf("ingest trace: no router reorder span (got %v)", ing["reorder"])
	}
	for _, name := range []string{"collect", "wal-append", "wal-fsync"} {
		for shard := 0; shard < 4; shard++ {
			if !ing[name][shard] {
				t.Errorf("ingest trace: %s span missing for shard %d (got shards %v)", name, shard, ing[name])
			}
		}
	}

	// Traced query.
	qtc := tracer.Start("knn")
	qctx := trace.With(context.Background(), qtc)
	if _, err := sys.KNNQueryContext(qctx, geom.Pt(20, 12), 10); err != nil {
		t.Fatalf("KNNQueryContext: %v", err)
	}
	tracer.Finish(qtc)

	snaps := tracer.Snapshot()
	q := spansByName(snaps[len(snaps)-1])
	for _, name := range []string{"gather", "prune", "merge"} {
		if !q[name][trace.RouterShard] {
			t.Errorf("query trace: no router %s span (got %v)", name, q[name])
		}
	}
	if len(q["evaluate"]) != 4 {
		t.Errorf("query trace: evaluate spans cover shards %v, want exactly {0,1,2,3}", q["evaluate"])
	}
	for shard := 0; shard < 4; shard++ {
		if !q["evaluate"][shard] {
			t.Errorf("query trace: evaluate span missing for shard %d", shard)
		}
	}
	if len(q["advance"]) == 0 || len(q["snap"]) == 0 {
		t.Errorf("query trace: no filter spans (advance=%v snap=%v)", q["advance"], q["snap"])
	}
	for _, gone := range []string{"predict", "reweight", "resample"} {
		if len(q[gone]) != 0 {
			t.Errorf("query trace: stage span %q recorded; the kernel times no stages", gone)
		}
	}
	// Every advance span names its object and carries the call's counts.
	for _, sp := range snaps[len(snaps)-1].Spans {
		if sp.Name != "advance" {
			continue
		}
		keys := map[string]bool{}
		for _, a := range sp.Attrs {
			keys[a.Key] = true
		}
		if !keys["object"] || !keys["steps"] || !keys["detections"] || !keys["resamples"] {
			t.Fatalf("advance span attrs %v, want object, steps, detections and resamples", sp.Attrs)
		}
	}

	// Satellite: the slow-query ring entry names the trace and breaks the
	// scatter down per shard.
	slow := sys.Telemetry().Slow.Snapshot()
	if len(slow) == 0 {
		t.Fatal("slow-query ring is empty despite a 1ns threshold")
	}
	last := slow[len(slow)-1]
	if last.TraceID != qtc.IDString() {
		t.Errorf("slow-query traceId = %q, want %q", last.TraceID, qtc.IDString())
	}
	if len(last.ShardMicros) != 4 {
		t.Errorf("slow-query shardMicros = %v, want 4 entries", last.ShardMicros)
	}

	// Satellite: filter-trace ring entries carry shard attribution. With 120
	// objects hashed across 4 shards, runs must land outside shard 0 too.
	var shardsSeen [4]bool
	for _, ft := range sys.Telemetry().Trace.Snapshot() {
		if ft.Shard >= 0 && ft.Shard < 4 {
			shardsSeen[ft.Shard] = true
		}
	}
	if !shardsSeen[0] || (!shardsSeen[1] && !shardsSeen[2] && !shardsSeen[3]) {
		t.Errorf("filter-trace ring shard attribution did not spread: %v", shardsSeen)
	}

	// The same question again in the same stream second: every candidate is
	// advanced (a no-op) but none moved, so none is snapped again.
	rtc := tracer.Start("knn")
	if _, err := sys.KNNQueryContext(trace.With(context.Background(), rtc), geom.Pt(20, 12), 10); err != nil {
		t.Fatalf("KNNQueryContext: %v", err)
	}
	tracer.Finish(rtc)
	snaps = tracer.Snapshot()
	if again := spansByName(snaps[len(snaps)-1]); len(again["advance"]) == 0 || len(again["snap"]) != 0 {
		t.Errorf("repeated query trace: advance=%v snap=%v, want advances and no snap", again["advance"], again["snap"])
	}
}

// TestSingleEngineTraceSpans pins the single-shard span topology of a range
// query: the System records the same span names the router's shards do, with
// shard 0 standing in for the whole object space.
func TestSingleEngineTraceSpans(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := DefaultConfig()
	cfg.Seed = 91
	sys := MustNew(plan, dep, cfg)
	world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), traceCfg120(), 77)

	tracer := trace.New(trace.Config{Sample: 1, Seed: 5})
	itc := tracer.Start("ingest")
	ictx := trace.With(context.Background(), itc)
	for i := 0; i < 25; i++ {
		tm, raws := world.Step()
		if err := sys.IngestContext(ictx, tm, raws); err != nil {
			t.Fatalf("IngestContext: %v", err)
		}
	}
	tracer.Finish(itc)
	sys.FlushIngest()

	ing := spansByName(tracer.Snapshot()[0])
	if len(ing["reorder"]) == 0 {
		t.Error("ingest trace: no reorder span")
	}
	if !ing["collect"][0] {
		t.Errorf("ingest trace: no shard-0 collect span (got %v)", ing["collect"])
	}

	qtc := tracer.Start("range")
	qctx := trace.With(context.Background(), qtc)
	if _, err := sys.RangeQueryContext(qctx, geom.RectWH(5, 9, 25, 14)); err != nil {
		t.Fatalf("RangeQueryContext: %v", err)
	}
	tracer.Finish(qtc)
	snaps := tracer.Snapshot()
	q := spansByName(snaps[len(snaps)-1])
	// A range query's prune is per object, so the holder of the objects
	// gathers, prunes and preprocesses its own in one call: those spans are
	// the shard's, and only the merge is the coordinator's.
	for _, name := range []string{"gather", "prune", "evaluate"} {
		if !q[name][0] {
			t.Errorf("query trace: no shard-0 %s span (got %v)", name, q[name])
		}
	}
	if !q["merge"][trace.RouterShard] {
		t.Errorf("query trace: no router merge span (got %v)", q["merge"])
	}
}
