package health_test

import (
	"testing"

	"repro/internal/collector"
	"repro/internal/floorplan"
	"repro/internal/health"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/sim"
	"repro/internal/walkgraph"
)

// BenchmarkObserveSecond is the reader-health layer of POST /ingest in the
// ingest_durable shape: one second of a recorded 2,000-object stream over
// the default office's readers, then a Release for each object the
// collector reported an ENTER for, in the engine's order. The recording is
// replayed in laps, restamped between laps outside the timer.
func BenchmarkObserveSecond(b *testing.B) {
	const objects, warm, lap = 2000, 30, 60
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = objects
	tc.DwellMin, tc.DwellMax = 2, 8
	world := sim.MustNew(walkgraph.MustBuild(plan), rfid.NewSensor(dep), tc, 7)
	col := collector.New()
	var ts []model.Time
	var raws [][]model.RawReading
	var enters [][]model.ObjectID
	for i := 0; i < warm+lap; i++ {
		t, r := world.Step()
		_ = col.IngestSecond(t, r)
		var objs []model.ObjectID
		for _, ev := range col.DrainEvents() {
			if ev.Kind == model.Enter {
				objs = append(objs, ev.Object)
			}
		}
		ts, raws, enters = append(ts, t), append(raws, r), append(enters, objs)
	}
	m, err := health.NewMonitor(health.DefaultConfig(), dep.NumReaders())
	if err != nil {
		b.Fatal(err)
	}
	second := func(i int) {
		m.ObserveSecond(ts[i], raws[i])
		for _, obj := range enters[i] {
			m.Release(obj)
		}
	}
	for i := 0; i < warm; i++ {
		second(i)
	}
	readings := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := warm + i%lap
		if i > 0 && k == warm {
			b.StopTimer()
			for j := warm; j < warm+lap; j++ {
				ts[j] += lap
				for r := range raws[j] {
					raws[j][r].Time += lap
				}
			}
			b.StartTimer()
		}
		second(k)
		readings += len(raws[k])
	}
	b.StopTimer()
	b.ReportMetric(float64(readings)/float64(b.N), "readings/op")
}
