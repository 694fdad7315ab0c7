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
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := DefaultConfig()
	cfg.Seed = 7
	sys := MustNew(plan, dep, cfg)
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 1000
	tc.DwellMin, tc.DwellMax = 2, 8
	world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, 7)
	for i := 0; i < 80; i++ {
		tm, raws := world.Step()
		sys.Ingest(tm, raws)
	}
	now := sys.col.Now()
	objs := sys.col.KnownObjects()
	if len(objs) < 900 {
		b.Fatalf("too few objects detected: %d/1000", len(objs))
	}
	entries := make([][]model.AggregatedReading, len(objs))
	for i, obj := range objs {
		entries[i] = sys.col.Aggregated(obj)
	}
	pool := particle.NewPool()
	var src rng.Source

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, obj := range objs {
			es := entries[k]
			src = *rng.Derive(cfg.Seed, int64(obj), int64(es[len(es)-1].Time))
			if _, err := sys.filter.RunPool(pool, &src, obj, es, now); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(len(objs))*float64(b.N)/secs, "objs/s")
	}
}
