package engine

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/sim"
)

// TestParallelPreprocessDeterministic verifies the core promise of the
// parallel preprocessing module: worker count never changes the output,
// because every object's randomness is derived from (Seed, object, last
// reading time) rather than from execution order.
func TestParallelPreprocessDeterministic(t *testing.T) {
	build := func(workers int) map[int]map[int]float64 {
		plan := floorplan.DefaultOffice()
		dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
		cfg := DefaultConfig()
		cfg.Seed = 33
		cfg.Workers = workers
		sys := MustNew(plan, dep, cfg)
		tc := sim.DefaultTraceConfig()
		tc.NumObjects = 25
		tc.DwellMin, tc.DwellMax = 2, 8
		world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, 77)
		for i := 0; i < 150; i++ {
			tm, raws := world.Step()
			sys.Ingest(tm, raws)
		}
		tab := sys.Preprocess(sys.Collector().KnownObjects())
		out := make(map[int]map[int]float64)
		for _, obj := range tab.Objects() {
			m := make(map[int]float64)
			for ap, p := range tab.DistributionOf(obj).Map() {
				m[int(ap)] = p
			}
			out[int(obj)] = m
		}
		return out
	}
	serial := build(1)
	parallel4 := build(4)
	parallel16 := build(16)
	if !reflect.DeepEqual(serial, parallel4) {
		t.Error("workers=1 and workers=4 disagree")
	}
	if !reflect.DeepEqual(serial, parallel16) {
		t.Error("workers=1 and workers=16 disagree")
	}
	if len(serial) == 0 {
		t.Fatal("no distributions computed")
	}
}

// durableState is everything one snapshot barrier persists for a one-shard
// engine — the shard's share plus the router's — flattened into one value so
// tests can compare two engines' durable state byte for byte without a WAL
// directory. Collector.Snapshot and Cache.Dump both emit object-ID-sorted
// slices, so equal logical state means equal bytes.
type durableState struct {
	Shard          shardSnap
	ReorderStarted bool
	Watermark      model.Time
	MaxSeen        model.Time
	Drops          ingest.Drops
	Forced         int
}

func encodeDurableState(t *testing.T, shard *store, stats Stats, reorder *ingest.Reorder) []byte {
	t.Helper()
	hits, misses := shard.cache.Stats()
	wm, started := reorder.Watermark()
	ms, _ := reorder.MaxSeen()
	state := durableState{
		Shard: shardSnap{
			Stats:        stats,
			Collector:    shard.col.Snapshot(),
			CacheEntries: shard.cache.Dump(),
			CacheHits:    hits,
			CacheMisses:  misses,
		},
		ReorderStarted: started,
		Watermark:      wm,
		MaxSeen:        ms,
		Drops:          reorder.Drops(),
		Forced:         reorder.ForcedFlushes(),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&state); err != nil {
		t.Fatalf("encode durable state: %v", err)
	}
	return buf.Bytes()
}

// snapshotBytes is a one-shard engine's durable state; the query counters
// live in the telemetry and are folded in the way Stats() reports them.
func snapshotBytes(t *testing.T, e *Sharded) []byte {
	t.Helper()
	if e.n != 1 {
		t.Fatalf("snapshotBytes needs one shard, engine has %d", e.n)
	}
	stats := e.shards[0].stats
	stats.RangeQueries, stats.KNNQueries = e.tel.queriesCounted()
	return encodeDurableState(t, e.shards[0], stats, e.reorder)
}

// TestParallelPreprocessDeterministicAtScale drives 1000 objects through the
// batched worker-pool scheduler at several worker counts and asserts that
// cumulative Stats, range and kNN answers, and the durable snapshot encoding
// are bit-for-bit identical to the one-worker baseline. This pins the scheduler's whole observable surface, not just the
// distributions: cache hit/miss accounting, filter-run counters, and the
// gob-encoded particle states that recovery depends on.
func TestParallelPreprocessDeterministicAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-object grid is not a -short test")
	}
	type outcome struct {
		stats Stats
		rng   model.ResultSet
		knn   model.ResultSet
		snap  []byte
	}
	build := func(workers int) outcome {
		plan := floorplan.DefaultOffice()
		dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
		cfg := DefaultConfig()
		cfg.Seed = 33
		cfg.Workers = workers
		sys := MustNew(plan, dep, cfg)
		tc := sim.DefaultTraceConfig()
		tc.NumObjects = 1000
		tc.DwellMin, tc.DwellMax = 2, 8
		world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, 77)
		for i := 0; i < 40; i++ {
			tm, raws := world.Step()
			sys.Ingest(tm, raws)
		}
		rng := sys.RangeQuery(geom.RectWH(5, 9, 25, 14))
		knn := sys.KNNQuery(geom.Pt(20, 12), 10)
		return outcome{stats: sys.Stats(), rng: rng, knn: knn, snap: snapshotBytes(t, sys.Sharded)}
	}
	base := build(1)
	if base.stats.FiltersRun == 0 || len(base.rng) == 0 {
		t.Fatalf("baseline is vacuous: stats=%+v |range|=%d", base.stats, len(base.rng))
	}
	for _, workers := range []int{4, 16} {
		got := build(workers)
		if !reflect.DeepEqual(got.stats, base.stats) {
			t.Errorf("workers=%d: stats diverge:\n got %+v\nwant %+v", workers, got.stats, base.stats)
		}
		if !reflect.DeepEqual(got.rng, base.rng) {
			t.Errorf("workers=%d: range answers diverge", workers)
		}
		if !reflect.DeepEqual(got.knn, base.knn) {
			t.Errorf("workers=%d: kNN answers diverge", workers)
		}
		if !bytes.Equal(got.snap, base.snap) {
			t.Errorf("workers=%d: snapshot bytes diverge (%d vs %d bytes)", workers, len(got.snap), len(base.snap))
		}
	}
}

// TestRepeatedPreprocessSameAnswer verifies idempotence: asking the same
// question twice (same readings, same time) gives the same answer even
// though the cache path is exercised the second time.
func TestRepeatedPreprocessSameAnswer(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := DefaultConfig()
	cfg.Seed = 44
	sys := MustNew(plan, dep, cfg)
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 10
	world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, 88)
	for i := 0; i < 120; i++ {
		tm, raws := world.Step()
		sys.Ingest(tm, raws)
	}
	objs := sys.Collector().KnownObjects()
	first := sys.Preprocess(objs)
	second := sys.Preprocess(objs)
	for _, obj := range first.Objects() {
		a := first.DistributionOf(obj).Map()
		b := second.DistributionOf(obj).Map()
		if len(a) != len(b) {
			t.Errorf("o%d support changed between identical queries", obj)
			continue
		}
		for ap, p := range a {
			if b[ap] != p {
				t.Errorf("o%d anchor %d: %v then %v", obj, ap, p, b[ap])
			}
		}
	}
}
