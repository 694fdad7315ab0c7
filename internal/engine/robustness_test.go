package engine

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/sim"
)

// TestRobustToGhostReads injects false positives (multipath ghost reads at
// neighboring readers) and checks that the collector's majority aggregation
// plus the particle filter still produce sane, normalized answers with
// reasonable accuracy.
func TestRobustToGhostReads(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := DefaultConfig()
	cfg.Seed = 5
	sys := MustNew(plan, dep, cfg)
	sensor := rfid.NewSensor(dep)
	sensor.GhostReadProb = 0.3
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 20
	tc.DwellMin, tc.DwellMax = 2, 8
	world := sim.MustNew(sys.Graph(), sensor, tc, 55)
	for i := 0; i < 250; i++ {
		tm, raws := world.Step()
		sys.Ingest(tm, raws)
	}
	objs := sys.Collector().KnownObjects()
	if len(objs) == 0 {
		t.Fatal("no objects known")
	}
	tab := sys.Preprocess(objs)
	var hits []float64
	for _, obj := range objs {
		if !tab.HasObject(obj) {
			continue
		}
		if total := tab.TotalProbOf(obj); math.Abs(total-1) > 1e-9 {
			t.Errorf("object %d mass %v under ghost reads", obj, total)
		}
		// Localization within 8 m of truth for most objects.
		trueLoc := world.TrueLocation(obj)
		nd := sys.Graph().DistancesFromLocation(trueLoc)
		near := 0.0
		for ap, p := range tab.DistributionOf(obj).Map() {
			if sys.Graph().DistToLocation(trueLoc, nd, sys.AnchorIndex().Anchor(ap).Loc) < 8 {
				near += p
			}
		}
		hits = append(hits, near)
	}
	if m := metrics.Mean(hits); m < 0.5 {
		t.Errorf("mean near-truth mass under ghost reads = %v, want >= 0.5", m)
	}
}

// TestRobustToReaderOutage fails two readers mid-simulation: the system must
// keep answering (objects near dead readers just coast longer) without any
// panics or denormalized output.
func TestRobustToReaderOutage(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := DefaultConfig()
	cfg.Seed = 6
	sys := MustNew(plan, dep, cfg)
	sensor := rfid.NewSensor(dep)
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 20
	tc.DwellMin, tc.DwellMax = 2, 8
	world := sim.MustNew(sys.Graph(), sensor, tc, 66)
	for i := 0; i < 120; i++ {
		tm, raws := world.Step()
		sys.Ingest(tm, raws)
	}
	sensor.SetOffline(model.ReaderID(3), true)
	sensor.SetOffline(model.ReaderID(11), true)
	for i := 0; i < 120; i++ {
		tm, raws := world.Step()
		sys.Ingest(tm, raws)
		for _, r := range raws {
			if r.Reader == 3 || r.Reader == 11 {
				t.Fatalf("reading from offline reader %d", r.Reader)
			}
		}
	}
	tab := sys.Preprocess(sys.Collector().KnownObjects())
	for _, obj := range tab.Objects() {
		if total := tab.TotalProbOf(obj); math.Abs(total-1) > 1e-9 {
			t.Errorf("object %d mass %v after outage", obj, total)
		}
	}
}
