package engine_test

// The particle-filter engine side by side with what runs over it from
// internal/baseline: the paper's symbolic-model comparator. An external test
// package, because baseline imports engine.

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/sim"
)

// warmSystem spins up the default office with a small simulated population
// and warms it up for warmup seconds.
func warmSystem(t *testing.T, objects, warmup int, seed int64) (*engine.System, *sim.Simulator) {
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
	return sys, world
}

func TestSMQueriesWork(t *testing.T) {
	sys, _ := warmSystem(t, 20, 120, 5)
	sm := baseline.MustNew(sys)
	rs := sm.RangeQuery(geom.RectWH(20, 9, 20, 8))
	for obj, p := range rs {
		if p < -1e-9 || p > 1+1e-9 {
			t.Errorf("SM P(o%d) = %v", obj, p)
		}
	}
	got := sm.KNNQuery(geom.Pt(35, 12), 3)
	if len(got) > 0 && len(got) < 3 {
		t.Logf("SM kNN returned %d objects", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Error("SM kNN set not sorted ascending")
		}
	}
}

// TestPFBeatsSMOnKL is the headline claim of the paper (Figure 9): the
// particle filter-based method's range query answers should have materially
// lower KL divergence from the ground truth than the symbolic baseline's.
func TestPFBeatsSMOnKL(t *testing.T) {
	sys, simulator := warmSystem(t, 30, 200, 8)
	sm := baseline.MustNew(sys)
	var pfKL, smKL []float64
	src := geomRects()
	for _, w := range src {
		truth := make(model.ResultSet)
		for _, o := range simulator.TrueRange(w) {
			truth[o] = 1
		}
		if len(truth) == 0 {
			continue
		}
		pf := sys.RangeQuery(w)
		smv := sm.RangeQuery(w)
		pfKL = append(pfKL, metrics.KLDivergence(truth, pf, metrics.DefaultEpsilon))
		smKL = append(smKL, metrics.KLDivergence(truth, smv, metrics.DefaultEpsilon))
	}
	if len(pfKL) < 3 {
		t.Skip("too few non-empty windows")
	}
	mp, ms := metrics.Mean(pfKL), metrics.Mean(smKL)
	t.Logf("mean KL: PF=%v SM=%v over %d windows", mp, ms, len(pfKL))
	if mp >= ms {
		t.Errorf("PF KL %v not below SM KL %v", mp, ms)
	}
}

func geomRects() []geom.Rect {
	var out []geom.Rect
	for _, x := range []float64{5, 20, 35, 50} {
		for _, y := range []float64{8, 14, 22} {
			out = append(out, geom.RectWH(x, y, 10, 6))
		}
	}
	return out
}
