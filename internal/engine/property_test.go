package engine

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/sim"
)

// TestPipelineInvariantsAcrossRandomGeometries is the system-level property
// test: for a spread of randomly generated floor plans, the full pipeline
// (graph, anchors, deployment, simulation, filtering, queries) must uphold
// its invariants — valid graphs, normalized distributions, probabilities in
// [0,1], whole-floor queries recovering full mass.
func TestPipelineInvariantsAcrossRandomGeometries(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		src := rng.New(seed * 131)
		hallways := 1 + src.Intn(3)
		plan := floorplan.RandomOffice(src, hallways)
		if err := plan.Validate(); err != nil {
			t.Fatalf("seed %d: invalid plan: %v", seed, err)
		}
		readers := 4 + src.Intn(10)
		dep, err := rfid.DeployUniform(plan, readers, 2)
		if err != nil {
			t.Fatalf("seed %d: deploy: %v", seed, err)
		}
		cfg := DefaultConfig()
		cfg.Seed = seed
		sys, err := New(plan, dep, cfg)
		if err != nil {
			t.Fatalf("seed %d: system: %v", seed, err)
		}
		tc := sim.DefaultTraceConfig()
		tc.NumObjects = 10
		tc.DwellMin, tc.DwellMax = 2, 8
		world, err := sim.New(sys.Graph(), rfid.NewSensor(dep), tc, seed)
		if err != nil {
			t.Fatalf("seed %d: sim: %v", seed, err)
		}
		for i := 0; i < 150; i++ {
			tm, raws := world.Step()
			sys.Ingest(tm, raws)
		}
		tab := sys.Preprocess(sys.Collector().KnownObjects())
		for _, obj := range tab.Objects() {
			if total := tab.TotalProbOf(obj); math.Abs(total-1) > 1e-9 {
				t.Errorf("seed %d: object %d mass %v", seed, obj, total)
			}
		}
		// Whole-floor range query: every filtered object with ~full mass.
		rs := sys.RangeQueryOn(tab, plan.Bounds())
		for obj, p := range rs {
			if p < 0.97 || p > 1+1e-9 {
				t.Errorf("seed %d: whole-floor P(o%d) = %v", seed, obj, p)
			}
		}
		// A kNN query from a random hallway point produces probabilities in
		// range and no negative masses.
		pt, _ := plan.PointOnHallway(src.Uniform(0, plan.TotalHallwayLength()))
		krs := sys.KNNQueryOn(tab, pt, 2)
		for obj, p := range krs {
			if p < -1e-9 || p > 1+1e-9 {
				t.Errorf("seed %d: kNN P(o%d) = %v", seed, obj, p)
			}
		}
	}
}

// TestRandomGeometryQueriesConsistent checks result-set consistency on a
// random plan: a window's probability for an object never exceeds the
// whole-floor probability, and nested windows give monotone results.
func TestRandomGeometryQueriesConsistent(t *testing.T) {
	src := rng.New(99)
	plan := floorplan.RandomOffice(src, 2)
	dep, err := rfid.DeployUniform(plan, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys := MustNew(plan, dep, DefaultConfig())
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 12
	world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, 7)
	for i := 0; i < 150; i++ {
		tm, raws := world.Step()
		sys.Ingest(tm, raws)
	}
	tab := sys.Preprocess(sys.Collector().KnownObjects())
	b := plan.Bounds()
	inner := geom.RectFromCorners(
		geom.Pt(b.Min.X+b.Width()/4, b.Min.Y+b.Height()/4),
		geom.Pt(b.Max.X-b.Width()/4, b.Max.Y-b.Height()/4))
	rsInner := sys.RangeQueryOn(tab, inner)
	rsWhole := sys.RangeQueryOn(tab, b)
	for obj, p := range rsInner {
		if p > rsWhole[obj]+1e-6 {
			t.Errorf("monotonicity violated for o%d: inner %v > whole %v", obj, p, rsWhole[obj])
		}
	}
}
