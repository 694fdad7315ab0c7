package repro_test

// Black-box tests of the public facade: everything a downstream user touches
// must be reachable through the repro package alone.

import (
	"encoding/json"
	"math"
	"testing"

	"repro"
)

// world builds the standard test fixture through the public API only.
func world(t *testing.T, objects int, seed int64) (*repro.System, *repro.Simulator) {
	t.Helper()
	plan := repro.DefaultOffice()
	dep := repro.MustDeployUniform(plan, repro.DefaultReaders, repro.DefaultActivationRange)
	cfg := repro.DefaultConfig()
	cfg.Seed = seed
	sys := repro.MustNewSystem(plan, dep, cfg)
	tc := repro.DefaultTraceConfig()
	tc.NumObjects = objects
	tc.DwellMin, tc.DwellMax = 2, 8
	sim := repro.MustNewSimulator(sys.Graph(), repro.NewSensor(dep), tc, seed+1)
	return sys, sim
}

func TestPublicAPIRoundTrip(t *testing.T) {
	sys, sim := world(t, 15, 1)
	for i := 0; i < 150; i++ {
		tm, raws := sim.Step()
		sys.Ingest(tm, raws)
	}
	// Range query.
	rs := sys.RangeQuery(repro.RectWH(10, 9, 20, 8))
	for o, p := range rs {
		if p < -1e-9 || p > 1+1e-9 {
			t.Errorf("P(o%d) = %v", o, p)
		}
	}
	// kNN query + ranking helpers.
	knn := sys.KNNQuery(repro.Pt(35, 12), 3)
	top := repro.TopKObjects(knn, 3)
	if len(top) > 3 {
		t.Errorf("TopKObjects returned %d", len(top))
	}
	// Metrics.
	truth := sim.TrueKNN(repro.Pt(35, 12), 3)
	hr := repro.HitRate(knn.Objects(), truth)
	if hr < 0 || hr > 1 {
		t.Errorf("hit rate %v", hr)
	}
	tr := repro.ResultSet{}
	for _, o := range sim.TrueRange(repro.RectWH(10, 9, 20, 8)) {
		tr[o] = 1
	}
	if kl := repro.KLDivergence(tr, rs); kl < 0 || math.IsNaN(kl) {
		t.Errorf("KL = %v", kl)
	}
}

func TestPublicContinuousMonitors(t *testing.T) {
	sys, sim := world(t, 12, 2)
	for i := 0; i < 120; i++ {
		tm, raws := sim.Step()
		sys.Ingest(tm, raws)
	}
	zone := repro.RectWH(2, 11, 20, 14)
	cr := repro.NewContinuousRange(zone, 0.5)
	ck := repro.NewContinuousKNN(repro.Pt(35, 12), 2)
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			tm, raws := sim.Step()
			sys.Ingest(tm, raws)
		}
		cr.Update(sys.RangeQuery(zone))
		ck.Update(sys.KNNQuery(repro.Pt(35, 12), 2))
	}
	if got := len(ck.Result()); got > 2 {
		t.Errorf("continuous kNN tracks %d objects", got)
	}
}

func TestPublicLocalizationAndPairs(t *testing.T) {
	sys, sim := world(t, 10, 3)
	for i := 0; i < 150; i++ {
		tm, raws := sim.Step()
		sys.Ingest(tm, raws)
	}
	objs := sys.KnownObjects()
	if len(objs) == 0 {
		t.Fatal("no localizations")
	}
	for _, o := range objs {
		l, ok := sys.Localize(o)
		if !ok {
			t.Fatalf("o%d not localized", o)
		}
		if l.Entropy < 0 {
			t.Errorf("entropy %v", l.Entropy)
		}
	}
	pairs := sys.ClosestPairs(2)
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Dist < pairs[i-1].Dist {
			t.Error("pairs not sorted")
		}
	}
}

func TestPublicSerialization(t *testing.T) {
	plan := repro.TwoStoryOffice()
	data, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := repro.DecodePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan2.Rooms()) != len(plan.Rooms()) {
		t.Error("plan round trip lost rooms")
	}
	dep := repro.MustDeployUniform(plan, 38, 2)
	depData, err := json.Marshal(dep)
	if err != nil {
		t.Fatal(err)
	}
	dep2, err := repro.DecodeDeployment(depData, plan2)
	if err != nil {
		t.Fatal(err)
	}
	if dep2.NumReaders() != dep.NumReaders() {
		t.Error("deployment round trip lost readers")
	}
}

func TestPublicCustomPlanBuilder(t *testing.T) {
	b := repro.NewPlanBuilder()
	h := b.AddHallway("main", repro.Seg(repro.Pt(0, 10), repro.Pt(40, 10)), 2)
	b.AddRoom("lab", repro.RectWH(5, 3, 8, 6), h)
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dep := repro.NewDeployment([]repro.Reader{
		{Pos: repro.Pt(10, 10), Range: 2},
		{Pos: repro.Pt(30, 10), Range: 2},
	})
	if _, err := repro.NewSystem(plan, dep, repro.DefaultConfig()); err != nil {
		t.Fatalf("custom plan system: %v", err)
	}
}

func TestPublicRandomOffice(t *testing.T) {
	plan := repro.RandomOffice(7, 2)
	if err := plan.Validate(); err != nil {
		t.Fatalf("random office invalid: %v", err)
	}
	if _, err := repro.BuildWalkGraph(plan); err != nil {
		t.Fatalf("walk graph: %v", err)
	}
}

func TestPublicHistoricalQueries(t *testing.T) {
	plan := repro.DefaultOffice()
	dep := repro.MustDeployUniform(plan, repro.DefaultReaders, repro.DefaultActivationRange)
	cfg := repro.DefaultConfig()
	cfg.KeepHistory = true
	sys := repro.MustNewSystem(plan, dep, cfg)
	tc := repro.DefaultTraceConfig()
	tc.NumObjects = 10
	sim := repro.MustNewSimulator(sys.Graph(), repro.NewSensor(dep), tc, 9)
	for i := 0; i < 200; i++ {
		tm, raws := sim.Step()
		sys.Ingest(tm, raws)
	}
	rs := sys.RangeQueryAt(plan.Bounds(), 100)
	for o, p := range rs {
		if p < -1e-9 || p > 1+1e-9 {
			t.Errorf("historical P(o%d) = %v", o, p)
		}
	}
}
