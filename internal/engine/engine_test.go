package engine

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/sim"
)

// testSystem spins up the default office with a small simulated population
// and warms it up for warmup seconds.
func testSystem(t *testing.T, objects, warmup int, seed int64) (*System, *sim.Simulator) {
	t.Helper()
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := DefaultConfig()
	cfg.Seed = seed
	sys := MustNew(plan, dep, cfg)
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = objects
	tc.DwellMin, tc.DwellMax = 2, 10
	simulator := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, seed+1000)
	for i := 0; i < warmup; i++ {
		tm, raws := simulator.Step()
		sys.Ingest(tm, raws)
	}
	return sys, simulator
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.AnchorSpacing = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero anchor spacing accepted")
	}
	bad = DefaultConfig()
	bad.MaxSpeed = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero max speed accepted")
	}
	bad = DefaultConfig()
	bad.SMTrials = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero SM trials accepted")
	}
	bad = DefaultConfig()
	bad.Particle.Ns = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad particle config accepted")
	}
}

func TestPreprocessProducesNormalizedDistributions(t *testing.T) {
	sys, _ := testSystem(t, 20, 120, 1)
	objs := sys.Collector().KnownObjects()
	if len(objs) == 0 {
		t.Fatal("no objects detected in 120 s")
	}
	tab := sys.Preprocess(objs)
	for _, obj := range objs {
		if !tab.HasObject(obj) {
			continue // never filtered (no readings retained)
		}
		total := tab.TotalProbOf(obj)
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("object %d distribution sums to %v", obj, total)
		}
	}
}

func TestRangeQueryResultsAreProbabilities(t *testing.T) {
	sys, _ := testSystem(t, 20, 120, 2)
	rs := sys.RangeQuery(geom.RectWH(20, 9, 20, 8))
	for obj, p := range rs {
		if p < -1e-9 || p > 1+1e-9 {
			t.Errorf("P(o%d) = %v out of [0,1]", obj, p)
		}
	}
}

func TestWholeFloorRangeQueryCoversDetectedMass(t *testing.T) {
	sys, _ := testSystem(t, 15, 150, 3)
	// Querying the whole floor must return each filtered object with
	// probability ~1.
	whole := sys.Graph().Plan().Bounds()
	rs := sys.RangeQuery(whole)
	for obj, p := range rs {
		if p < 0.98 {
			t.Errorf("P(o%d in whole floor) = %v, want ~1", obj, p)
		}
	}
	if len(rs) == 0 {
		t.Error("no objects in whole-floor query")
	}
}

func TestKNNQueryReturnsEnoughMass(t *testing.T) {
	sys, _ := testSystem(t, 25, 150, 4)
	rs := sys.KNNQuery(geom.Pt(35, 12), 3)
	if rs.TotalProb() < 3-1e-9 {
		// Possible only if fewer than 3 objects have mass at all.
		if len(rs) >= 3 {
			t.Errorf("kNN mass = %v with %d objects", rs.TotalProb(), len(rs))
		}
	}
	if len(rs) < 3 {
		t.Logf("note: only %d objects returned (population sparse near query)", len(rs))
	}
}

func TestCacheSpeedsUpRepeatedQueries(t *testing.T) {
	sys, _ := testSystem(t, 15, 100, 6)
	w := geom.RectWH(10, 9, 30, 10)
	sys.RangeQuery(w)
	h0, _ := sys.CacheStats()
	sys.RangeQuery(w) // immediate re-query: cache should hit
	h1, _ := sys.CacheStats()
	if h1 <= h0 {
		t.Errorf("no cache hits on repeated query: %d -> %d", h0, h1)
	}
}

func TestCacheConsistentWithUncachedResults(t *testing.T) {
	// The cached path must produce statistically equivalent results: here we
	// check it still yields normalized distributions after several rounds.
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := DefaultConfig()
	cfg.UseCache = true
	sys := MustNew(plan, dep, cfg)
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 10
	tc.DwellMin, tc.DwellMax = 2, 8
	simulator := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, 99)
	for round := 0; round < 5; round++ {
		for i := 0; i < 30; i++ {
			tm, raws := simulator.Step()
			sys.Ingest(tm, raws)
		}
		tab := sys.Preprocess(sys.Collector().KnownObjects())
		for _, obj := range tab.Objects() {
			if total := tab.TotalProbOf(obj); math.Abs(total-1) > 1e-9 {
				t.Fatalf("round %d: object %d mass %v", round, obj, total)
			}
		}
	}
}

func TestPruningDoesNotChangeRangeAnswersMaterially(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)

	run := func(prune bool) model.ResultSet {
		cfg := DefaultConfig()
		cfg.UsePruning = prune
		cfg.UseCache = false
		cfg.Seed = 7
		sys := MustNew(plan, dep, cfg)
		tc := sim.DefaultTraceConfig()
		tc.NumObjects = 15
		tc.DwellMin, tc.DwellMax = 2, 8
		simulator := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, 4243)
		for i := 0; i < 120; i++ {
			tm, raws := simulator.Step()
			sys.Ingest(tm, raws)
		}
		return sys.RangeQuery(geom.RectWH(5, 9, 15, 8))
	}
	with := run(true)
	without := run(false)
	// Pruning only removes objects that cannot be in the window, so every
	// object with noticeable probability in the unpruned answer must also
	// appear in the pruned one.
	for obj, p := range without {
		if p > 0.05 {
			if _, ok := with[obj]; !ok {
				t.Errorf("pruning dropped object %d with P=%v", obj, p)
			}
		}
	}
}

func TestIngestInvalidatesCacheOnEnter(t *testing.T) {
	sys, _ := testSystem(t, 10, 80, 9)
	// Preprocess everything so the cache is populated.
	sys.Preprocess(sys.Collector().KnownObjects())
	hits0, _ := sys.CacheStats()
	_ = hits0
	// Continue the simulation; objects that changed device must not hit.
	// (Indirect check: the system keeps returning normalized distributions.)
	tab := sys.Preprocess(sys.Collector().KnownObjects())
	for _, obj := range tab.Objects() {
		if total := tab.TotalProbOf(obj); math.Abs(total-1) > 1e-9 {
			t.Errorf("object %d mass %v after cache round-trip", obj, total)
		}
	}
}
