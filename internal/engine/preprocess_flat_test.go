package engine

import (
	"context"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/sim"
)

// warm1k builds a one-shard router over the default office tracking 1000
// objects on the default trace (the benchmark's query_hot population),
// ingests its 60 warm-up seconds, and preprocesses everything once so every
// object has a cached state. It returns the engine, the simulator (for more
// seconds) and the first 300 known objects.
func warm1k(tb testing.TB) (*Sharded, *sim.Simulator, []model.ObjectID) {
	tb.Helper()
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Shards = 1
	e := MustNewSharded(plan, dep, cfg)
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 1000
	world := sim.MustNew(e.Graph(), rfid.NewSensor(dep), tc, 7)
	for i := 0; i < 60; i++ {
		tm, raws := world.Step()
		if err := e.Ingest(tm, raws); err != nil {
			tb.Fatal(err)
		}
	}
	objs := e.KnownObjects()
	if len(objs) < 900 {
		tb.Fatalf("warmup too cold: only %d/1000 objects known", len(objs))
	}
	e.Preprocess(objs)
	return e, world, objs[:300]
}

// TestPreprocessWarmAllocs pins what a warm query allocates per candidate:
// with the cache handing states over instead of cloning them, the snap
// accumulating into worker scratch, and the table built once from sorted
// slices, preprocessing 300 cached candidates after one new stream-second
// costs at most 4 allocations and 512 bytes each (it was about 20 and 9 KB),
// and asking again in the same second costs no allocation per candidate.
func TestPreprocessWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops worker scratch at random under the race detector")
	}
	e, world, cands := warm1k(t)
	ctx := context.Background()
	call := func() {
		if tab, err := e.PreprocessContext(ctx, cands); err != nil || len(tab.Dists()) != len(cands) {
			t.Fatalf("PreprocessContext: %d of %d objects, err %v", len(tab.Dists()), len(cands), err)
		}
	}
	step := func() {
		tm, raws := world.Step()
		if err := e.Ingest(tm, raws); err != nil {
			t.Fatal(err)
		}
	}
	// Grow the engine's recycled work list and reading buffer first.
	step()
	call()

	// One new second, then the call alone between two MemStats reads. The
	// minimum over a few rounds sheds stray background allocations.
	bestAllocs, bestBytes := ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for round := 0; round < 5; round++ {
		step()
		runtime.ReadMemStats(&before)
		call()
		runtime.ReadMemStats(&after)
		bestAllocs = min(bestAllocs, after.Mallocs-before.Mallocs)
		bestBytes = min(bestBytes, after.TotalAlloc-before.TotalAlloc)
	}
	n := uint64(len(cands))
	t.Logf("warm preprocess of %d candidates: %d allocs (%.2f each), %d bytes (%.0f each)",
		n, bestAllocs, float64(bestAllocs)/float64(n), bestBytes, float64(bestBytes)/float64(n))
	if bestAllocs > 4*n {
		t.Errorf("%d allocations for %d candidates, want <= 4 each", bestAllocs, n)
	}
	if bestBytes > 512*n {
		t.Errorf("%d bytes for %d candidates, want <= 512 each", bestBytes, n)
	}
	// Asked again with no new second between the runs, no candidate moved:
	// every advance is a no-op and every snap a memo hit, so the call
	// allocates only its answer and table, nothing per candidate.
	if perRun := testing.AllocsPerRun(5, call); perRun > 16 {
		t.Errorf("repeated call: AllocsPerRun = %v for %d candidates, want <= 16 in all", perRun, n)
	}
}

// countdownCtx reports no error for its first n Err calls and
// DeadlineExceeded from then on: a deadline that fires at a chosen task
// boundary inside preprocessDists, whatever the host's speed.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestDeadlineLeavesSkippedStatesUntouched: states are advanced in place, so
// a deadline that fires mid-preprocess must leave every object it skipped
// exactly as cached — byte for byte — while the objects it reached are
// advanced and answered.
func TestDeadlineLeavesSkippedStatesUntouched(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.Workers = 1 // one worker: the countdown lands on a known task
	sys := MustNew(plan, dep, cfg)
	world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), traceCfg120(), 9)
	ingestTrace(t, sys, world, 40)
	objs := sys.KnownObjects()
	sys.Preprocess(objs)
	ingestTrace(t, sys, world, 2)

	byObject := func(entries []cache.Entry) map[model.ObjectID]cache.Entry {
		m := make(map[model.ObjectID]cache.Entry, len(entries))
		for _, en := range entries {
			m[en.State.Object] = en
		}
		return m
	}
	before := byObject(sys.shards[0].cache.Dump())
	const reach = 25
	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(reach)
	dists, err := sys.shards[0].preprocessDists(ctx, objs, Query{})
	if de, ok := IsDeadline(err); !ok || de.Stage != "preprocess" {
		t.Fatalf("err = %v, want a preprocess deadline", err)
	}
	if len(dists) != reach {
		t.Fatalf("%d objects answered, want the %d reached before the deadline", len(dists), reach)
	}
	after := byObject(sys.shards[0].cache.Dump())
	answered := make(map[model.ObjectID]bool)
	advanced := 0
	for _, od := range dists {
		answered[od.Object] = true
		if after[od.Object].State.Time != sys.Now() {
			t.Errorf("o%d answered but cached at t=%d, now %d", od.Object, after[od.Object].State.Time, sys.Now())
		}
		if was, ok := before[od.Object]; ok && was.State.Time < sys.Now() {
			advanced++
		}
	}
	if advanced == 0 {
		t.Fatal("vacuous: no answered object had a cached state to advance")
	}
	skipped := 0
	for obj, was := range before {
		if answered[obj] {
			continue
		}
		skipped++
		if now, ok := after[obj]; !ok || !reflect.DeepEqual(now, was) {
			t.Errorf("o%d was skipped by the deadline but its cached state changed", obj)
		}
	}
	if skipped == 0 {
		t.Fatal("vacuous: the deadline skipped nothing")
	}
	// The skipped objects are still answerable, and identically to an engine
	// that never hit a deadline.
	ref := MustNew(plan, dep, cfg)
	refWorld := sim.MustNew(ref.Graph(), rfid.NewSensor(dep), traceCfg120(), 9)
	ingestTrace(t, ref, refWorld, 40)
	ref.Preprocess(objs)
	ingestTrace(t, ref, refWorld, 2)
	want, _ := ref.shards[0].preprocessDists(context.Background(), objs, Query{})
	got, err := sys.shards[0].preprocessDists(context.Background(), objs, Query{})
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("answers after a deadline-cut call diverge from an uncut engine (err %v)", err)
	}
}

var benchTables int

// BenchmarkPreprocessWarm300 is the query path's evaluate stage on a warm
// cache: one new stream-second (untimed), then PreprocessContext over 300
// cached candidates through a one-shard router.
func BenchmarkPreprocessWarm300(b *testing.B) {
	e, world, cands := warm1k(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tm, raws := world.Step()
		e.Ingest(tm, raws)
		b.StartTimer()
		tab, err := e.PreprocessContext(ctx, cands)
		if err != nil {
			b.Fatal(err)
		}
		benchTables += tab.Len()
	}
}

// BenchmarkPreprocessRepeat300 is the evaluate stage of a repeated question:
// one new stream-second and a first PreprocessContext over 300 cached
// candidates (both untimed), then a second one in the same stream second —
// what every query after the first pays on query_hot, where six share a
// second. No candidate moved, so each advance is a no-op and each snap a
// memo hit.
func BenchmarkPreprocessRepeat300(b *testing.B) {
	e, world, cands := warm1k(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tm, raws := world.Step()
		e.Ingest(tm, raws)
		if _, err := e.PreprocessContext(ctx, cands); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		tab, err := e.PreprocessContext(ctx, cands)
		if err != nil {
			b.Fatal(err)
		}
		benchTables += tab.Len()
	}
}

// TestPreprocessRepeatedCandidates: candidates may arrive unsorted and with
// repeats (the public Preprocess takes any slice); each object is still one
// task, so its cached state is advanced by exactly one worker.
func TestPreprocessRepeatedCandidates(t *testing.T) {
	sys, _ := testSystem(t, 20, 80, 31)
	objs := sys.KnownObjects()
	if len(objs) < 4 {
		t.Fatal("too few objects")
	}
	messy := []model.ObjectID{objs[3], objs[0], objs[3], objs[2], objs[0], objs[3]}
	got := sys.Preprocess(messy).Dists()
	want := sys.Preprocess([]model.ObjectID{objs[0], objs[2], objs[3]}).Dists()
	if len(got) != 3 || !reflect.DeepEqual(got, want) {
		t.Errorf("Preprocess(%v) = %d objects, want the 3 distinct ones, identical to the sorted call", messy, len(got))
	}
}
