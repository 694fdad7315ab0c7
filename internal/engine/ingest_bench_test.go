package engine

import (
	"testing"

	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/walkgraph"
)

// ingestStream pre-generates seconds of simulated readings for objects
// tracked objects, so ingest benchmarks time the engine alone.
func ingestStream(plan *floorplan.Plan, dep *rfid.Deployment, objects, seconds int) (ts []model.Time, raws [][]model.RawReading) {
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = objects
	tc.DwellMin, tc.DwellMax = 2, 8
	world := sim.MustNew(walkgraph.MustBuild(plan), rfid.NewSensor(dep), tc, 7)
	for i := 0; i < seconds; i++ {
		t, r := world.Step()
		ts, raws = append(ts, t), append(raws, r)
	}
	return ts, raws
}

// BenchmarkShardedIngestDurable is the engine layer of POST /ingest in the
// ingest_durable shape: one delivery of 2,000 objects' readings through the
// router's reorder buffer, partition, four per-shard WAL appends and fsyncs
// (SyncAlways, real files in a temp dir), the reader-health monitor and the
// four collectors, with cmd/server's defaults otherwise.
func BenchmarkShardedIngestDurable(b *testing.B) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := DefaultConfig()
	cfg.KeepHistory = true
	cfg.Seed = 7
	cfg.Shards = 4
	cfg.Durability = DurabilityConfig{Dir: b.TempDir(), Fsync: wal.SyncAlways, SnapshotEvery: 60}
	e, err := OpenSharded(plan, dep, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	const warm = 30
	ts, raws := ingestStream(plan, dep, 2000, warm+b.N)
	for i := 0; i < warm; i++ {
		if err := e.Ingest(ts[i], raws[i]); err != nil {
			b.Fatal(err)
		}
	}
	readings := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := warm; i < warm+b.N; i++ {
		if err := e.Ingest(ts[i], raws[i]); err != nil {
			b.Fatal(err)
		}
		readings += len(raws[i])
	}
	b.StopTimer()
	b.ReportMetric(float64(readings)/float64(b.N), "readings/op")
}

// TestKernelIngestStepZeroAllocs is the ingest-side counterpart of the
// filter's TestSteadyStateAdvanceZeroAllocs: a second in which every object
// is read where it was read the second before — no ENTER or LEAVE, no new
// object — goes through the kernel's reorder buffer and collector (as a
// router shard runs it: the reader-health monitor is the router's) without a
// heap allocation, apart from the amortized growth of each object's retained
// entries, which the window measured here does not cross.
func TestKernelIngestStepZeroAllocs(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := DefaultConfig()
	cfg.Health.Enabled = false
	sys := MustNew(plan, dep, cfg)
	raws := make([]model.RawReading, 0, 100)
	now := model.Time(0)
	step := func() {
		now++
		raws = raws[:0]
		for o := 0; o < 50; o++ {
			r := model.RawReading{Object: model.ObjectID(o), Reader: model.ReaderID(o % rfid.DefaultReaders), Time: now}
			raws = append(raws, r, r)
		}
		if err := sys.Ingest(now, raws); err != nil {
			t.Fatal(err)
		}
	}
	// Every object's entries slice doubles at the same seconds (a power of
	// two of them retained); 140 warm-up seconds put the next doubling, at
	// 256, beyond the 101 measured ones.
	for now < 140 {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("steady-state kernel ingest step allocates %v times, want 0", allocs)
	}
	if st := sys.Stats(); st.ReadingsIngested != int(now)*100 || st.ReadingsDropped != 0 {
		t.Errorf("stats after %d seconds: %+v", now, st)
	}
}
