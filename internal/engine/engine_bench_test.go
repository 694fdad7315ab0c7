package engine

import (
	"fmt"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/particle"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/sim"
)

// BenchmarkEngineStep1kObjects measures one full engine second at population
// scale: simulate a second of movement for 1000 tracked objects, ingest the
// raw readings, and preprocess every known object (cached particle states
// advance one second through the batched worker pool; the anchor snap and
// telemetry run inline). ns/op here is the wall-clock cost of keeping 1000
// objects current at 1 Hz — divide by 1000 for the per-object budget, and
// multiply by 100 to estimate the 100k-object step time the roadmap targets.
// It runs New's System, which is the one-shard router.
func BenchmarkEngineStep1kObjects(b *testing.B) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := DefaultConfig()
	cfg.Seed = 7
	sys := MustNew(plan, dep, cfg)
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 1000
	tc.DwellMin, tc.DwellMax = 2, 8
	world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, 7)

	// Warm up: let every object appear at least once and build its cached
	// state, so the timed loop measures the steady state (cache hits, pooled
	// SoA advances) rather than cold-start filter runs.
	for i := 0; i < 30; i++ {
		tm, raws := world.Step()
		sys.Ingest(tm, raws)
	}
	objs := sys.Collector().KnownObjects()
	if len(objs) < 900 {
		b.Fatalf("warmup too cold: only %d/1000 objects known", len(objs))
	}
	sys.Preprocess(objs)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm, raws := world.Step()
		sys.Ingest(tm, raws)
		sys.Preprocess(objs)
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(len(objs))*float64(b.N)/secs, "objs/s")
	}
}

// BenchmarkEngineStepSharded1kObjects is the sharded-router variant of
// BenchmarkEngineStep1kObjects: the same 1000-object second (simulate,
// ingest, preprocess all known objects), routed through engine.Sharded at
// several shard counts. shards=1 is the router-overhead floor; higher counts
// show how ingest+preprocess throughput scales when object state is
// partitioned across independently locked shards.
func BenchmarkEngineStepSharded1kObjects(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			plan := floorplan.DefaultOffice()
			dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
			cfg := DefaultConfig()
			cfg.Seed = 7
			cfg.Shards = n
			sys := MustNewSharded(plan, dep, cfg)
			tc := sim.DefaultTraceConfig()
			tc.NumObjects = 1000
			tc.DwellMin, tc.DwellMax = 2, 8
			world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, 7)

			for i := 0; i < 30; i++ {
				tm, raws := world.Step()
				sys.Ingest(tm, raws)
			}
			objs := sys.KnownObjects()
			if len(objs) < 900 {
				b.Fatalf("warmup too cold: only %d/1000 objects known", len(objs))
			}
			sys.Preprocess(objs)

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tm, raws := world.Step()
				sys.Ingest(tm, raws)
				sys.Preprocess(objs)
			}
			b.StopTimer()
			secs := b.Elapsed().Seconds()
			if secs > 0 {
				b.ReportMetric(float64(len(objs))*float64(b.N)/secs, "objs/s")
			}
		})
	}
}

// coldRunFixture streams seconds simulated seconds of 1000 objects on
// DefaultOffice into a System and returns it and its simulator with the
// objects it detected, their aggregated readings and the stream clock: the
// input of one full Algorithm 2 run per object, collected before any timer
// starts.
func coldRunFixture(b *testing.B, seconds int) (*System, *sim.Simulator, []model.ObjectID, [][]model.AggregatedReading, model.Time) {
	b.Helper()
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := DefaultConfig()
	cfg.Seed = 7
	sys := MustNew(plan, dep, cfg)
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 1000
	tc.DwellMin, tc.DwellMax = 2, 8
	world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, 7)
	for i := 0; i < seconds; i++ {
		tm, raws := world.Step()
		sys.Ingest(tm, raws)
	}
	objs := sys.shards[0].col.KnownObjects()
	if len(objs) < 900 {
		b.Fatalf("too few objects detected: %d/1000", len(objs))
	}
	entries := make([][]model.AggregatedReading, len(objs))
	for i, obj := range objs {
		entries[i] = sys.shards[0].col.Aggregated(obj)
	}
	return sys, world, objs, entries, sys.shards[0].col.Now()
}

// reportParticleSteps reports the timed nanoseconds per particle-step: one
// particle moved through one simulated second.
func reportParticleSteps(b *testing.B, steps int) {
	if steps > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/particle-step")
	}
}

// BenchmarkColdRun1k measures the cost that dominates a cold query: one
// full Algorithm 2 run per object — initialize at the older retained
// device, step every second since, reweight and resample at each detection,
// apply the negative update on each silent second — for 1000 objects. The
// readings come from 80 simulated seconds on DefaultOffice, collected before
// the timer starts, so the timed loop is the particle kernel alone: no
// simulation, ingest or snap. Full runs are most of a cold query's
// object-steps, because a reading from a new device invalidates the cached
// state (the paper's cache management). ns/op is the 1000 runs.
func BenchmarkColdRun1k(b *testing.B) {
	sys, _, objs, entries, now := coldRunFixture(b, 80)
	seed := sys.cfg.Seed
	pool := particle.NewPool()
	var src rng.Source
	steps := 0

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, obj := range objs {
			es := entries[k]
			src = *rng.Derive(seed, int64(obj), int64(es[len(es)-1].Time))
			st, err := sys.filter.RunPool(pool, &src, obj, es, now)
			if err != nil {
				b.Fatal(err)
			}
			steps += st.LastRun.Steps * st.Len()
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(len(objs))*float64(b.N)/secs, "objs/s")
	}
	reportParticleSteps(b, steps)
}

// BenchmarkAdvance1s1k measures the cache-hit path a warm query pays: 1000
// cached states, each advanced by one stream second through one pool with
// that second's reading, if any, the way a query in every stream second
// resumes its candidates. The states are the ColdRun1k full runs at second
// 80; the timed loop advances them through the 40 seconds after it and then,
// timer stopped, restarts from clones of the second-80 states. ns/op is the
// 1000 advances.
func BenchmarkAdvance1s1k(b *testing.B) {
	const window = 40
	sys, world, objs, entries, start := coldRunFixture(b, 80)
	seed := sys.cfg.Seed
	pool := particle.NewPool()
	var src rng.Source
	base := make([]*particle.State, len(objs))
	last := make([]model.Time, len(objs)) // newest reading time so far
	for k, obj := range objs {
		es := entries[k]
		last[k] = es[len(es)-1].Time
		src = *rng.Derive(seed, int64(obj), int64(last[k]))
		st, err := sys.filter.RunPool(pool, &src, obj, es, start)
		if err != nil {
			b.Fatal(err)
		}
		base[k] = st
	}
	// Each second's new reading per object (Time == the second when the
	// object was detected) and the newest reading time the engine would
	// key the object's random stream with.
	var fresh [window][]model.AggregatedReading
	var keyT [window][]model.Time
	for sec := range fresh {
		tm, raws := world.Step()
		sys.Ingest(tm, raws)
		fresh[sec], keyT[sec] = make([]model.AggregatedReading, len(objs)), make([]model.Time, len(objs))
		for k, obj := range objs {
			if r, ok := sys.shards[0].col.LastReading(obj); ok && r.Time == tm {
				fresh[sec][k], last[k] = r, tm
			}
			keyT[sec][k] = last[k]
		}
	}
	states := make([]*particle.State, len(base))
	steps := 0

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sec := i % window
		if sec == 0 {
			b.StopTimer()
			for k, st := range base {
				states[k] = st.Clone()
			}
			b.StartTimer()
		}
		now := start + 1 + model.Time(sec)
		for k, st := range states {
			es := fresh[sec][k : k+1]
			if es[0].Time != now {
				es = nil
			}
			src = *rng.Derive(seed, int64(objs[k]), int64(keyT[sec][k]))
			sys.filter.AdvancePool(pool, &src, st, es, now)
			steps += st.LastRun.Steps * st.Len()
		}
	}
	b.StopTimer()
	reportParticleSteps(b, steps)
}
