package baseline

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/sim"
)

// testSystem spins up the default office with a small simulated population
// and warms it up for warmup seconds.
func testSystem(t *testing.T, objects, warmup int, seed int64) *engine.System {
	t.Helper()
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := engine.DefaultConfig()
	cfg.Seed = seed
	sys := engine.MustNew(plan, dep, cfg)
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = objects
	tc.DwellMin, tc.DwellMax = 2, 10
	world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, seed+1000)
	for i := 0; i < warmup; i++ {
		tm, raws := world.Step()
		sys.Ingest(tm, raws)
	}
	return sys
}

// TestSMMassAcrossRandomGeometries holds the baseline to the invariant the
// particle filter's tables uphold (TestPipelineInvariantsAcrossRandomGeometries
// in internal/engine): on randomly generated floor plans, every object's
// symbolic distribution sums to one.
func TestSMMassAcrossRandomGeometries(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		src := rng.New(seed * 131)
		plan := floorplan.RandomOffice(src, 1+src.Intn(3))
		dep, err := rfid.DeployUniform(plan, 4+src.Intn(10), 2)
		if err != nil {
			t.Fatalf("seed %d: deploy: %v", seed, err)
		}
		cfg := engine.DefaultConfig()
		cfg.Seed = seed
		sys, err := engine.New(plan, dep, cfg)
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
		tab := MustNew(sys).Preprocess(sys.KnownObjects())
		if len(tab.Objects()) == 0 {
			t.Fatalf("seed %d: the baseline located no object", seed)
		}
		for _, obj := range tab.Objects() {
			if total := tab.TotalProbOf(obj); math.Abs(total-1) > 1e-9 {
				t.Errorf("seed %d: SM object %d mass %v", seed, obj, total)
			}
		}
	}
}
