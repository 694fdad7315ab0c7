package engine_test

// The particle-filter engine side by side with what runs over it from
// internal/baseline: the paper's symbolic-model comparator and the registered
// continuous queries. An external test package, because baseline imports
// engine.

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

func TestRegistryRangeEvents(t *testing.T) {
	sys, world := warmSystem(t, 15, 100, 61)
	reg := baseline.NewRegistry(sys)
	zone := geom.RectWH(2, 11, 30, 14)
	id := reg.RegisterRange(zone, 0.5)
	if reg.Len() != 1 {
		t.Fatalf("Len = %d", reg.Len())
	}

	sawEnter, sawLeave := false, false
	members := map[model.ObjectID]bool{}
	for round := 0; round < 12; round++ {
		for i := 0; i < 10; i++ {
			tm, raws := world.Step()
			sys.Ingest(tm, raws)
		}
		for _, ev := range reg.Evaluate() {
			if ev.Query != id {
				t.Errorf("event for unknown query %d", ev.Query)
			}
			switch ev.Kind {
			case baseline.Entered:
				if members[ev.Object] {
					t.Errorf("double enter for o%d", ev.Object)
				}
				members[ev.Object] = true
				sawEnter = true
			case baseline.Left:
				if !members[ev.Object] {
					t.Errorf("leave without enter for o%d", ev.Object)
				}
				delete(members, ev.Object)
				sawLeave = true
			}
		}
		// The registry's view matches the accumulated membership.
		res := reg.Result(id)
		if len(res) != len(members) {
			t.Fatalf("round %d: result %v vs accumulated %v", round, res, members)
		}
	}
	if !sawEnter || !sawLeave {
		t.Errorf("expected both enter and leave events over 120 s (enter=%v leave=%v)", sawEnter, sawLeave)
	}
}

func TestRegistryKNNEvents(t *testing.T) {
	sys, world := warmSystem(t, 12, 100, 62)
	reg := baseline.NewRegistry(sys)
	id := reg.RegisterKNN(geom.Pt(35, 12), 3)
	changes := 0
	for round := 0; round < 10; round++ {
		for i := 0; i < 10; i++ {
			tm, raws := world.Step()
			sys.Ingest(tm, raws)
		}
		for _, ev := range reg.Evaluate() {
			if ev.Kind != baseline.Added && ev.Kind != baseline.Removed {
				t.Errorf("kNN query produced %v event", ev.Kind)
			}
			changes++
		}
		if got := len(reg.Result(id)); got > 3 {
			t.Fatalf("kNN result tracks %d > k objects", got)
		}
	}
	if changes == 0 {
		t.Error("no membership changes in 100 s of movement")
	}
}

func TestRegistryDeregister(t *testing.T) {
	sys, _ := warmSystem(t, 5, 60, 63)
	reg := baseline.NewRegistry(sys)
	a := reg.RegisterRange(geom.RectWH(0, 0, 10, 10), 0.5)
	b := reg.RegisterKNN(geom.Pt(10, 12), 2)
	if reg.Len() != 2 {
		t.Fatalf("Len = %d", reg.Len())
	}
	if !reg.Deregister(a) || reg.Deregister(a) {
		t.Error("range deregistration wrong")
	}
	if !reg.Deregister(b) {
		t.Error("knn deregistration wrong")
	}
	if reg.Len() != 0 {
		t.Errorf("Len after deregister = %d", reg.Len())
	}
	if reg.Evaluate() != nil {
		t.Error("empty registry produced events")
	}
	if reg.Result(a) != nil {
		t.Error("deregistered query still has results")
	}
}

func TestEventKindStrings(t *testing.T) {
	for kind, want := range map[baseline.EventKind]string{
		baseline.Entered: "entered", baseline.Left: "left", baseline.Added: "added", baseline.Removed: "removed",
	} {
		if kind.String() != want {
			t.Errorf("%d.String() = %q", kind, kind.String())
		}
	}
	if baseline.EventKind(9).String() == "" {
		t.Error("unknown kind empty")
	}
	ev := baseline.QueryEvent{Query: 1, Kind: baseline.Entered, Object: 4, Time: 9}
	if ev.String() != "q1: o4 entered (t=9)" {
		t.Errorf("event string = %q", ev.String())
	}
}

func TestEventDrivenRegistrySkipsQuietQueries(t *testing.T) {
	sys, world := warmSystem(t, 10, 100, 83)
	reg := baseline.NewRegistry(sys)
	reg.SetEventDriven(true)
	id := reg.RegisterRange(geom.RectWH(2, 11, 12, 2), 0.5)

	// The first evaluation always runs. The silent seconds before it let
	// every object still inside a reader's range LEAVE it, so the stretch
	// measured below carries no event at all.
	quiet := func() {
		for i := 0; i < 5; i++ {
			sys.Ingest(sys.Now()+1, nil)
		}
	}
	quiet()
	reg.Evaluate()
	statsAfterBaseline := sys.Stats()

	// Advance time with NO readings at all: no events anywhere, so the
	// event-driven registry must skip the query entirely.
	_, seq, _ := sys.EventsSince(0)
	quiet()
	if evs, _, _ := sys.EventsSince(seq); len(evs) != 0 {
		t.Fatalf("the silent stretch recorded %d ENTER/LEAVE events", len(evs))
	}
	evs := reg.Evaluate()
	if len(evs) != 0 {
		t.Errorf("quiet evaluation produced events: %v", evs)
	}
	statsAfterQuiet := sys.Stats()
	if statsAfterQuiet.FiltersRun != statsAfterBaseline.FiltersRun ||
		statsAfterQuiet.FiltersResumed != statsAfterBaseline.FiltersResumed {
		t.Error("quiet evaluation still ran filters")
	}
	if statsAfterQuiet.RangeQueries != statsAfterBaseline.RangeQueries {
		t.Error("quiet evaluation still evaluated the range query")
	}

	// Resume the world: events eventually touch critical devices and the
	// query gets refreshed again.
	refreshed := false
	for round := 0; round < 15 && !refreshed; round++ {
		for i := 0; i < 10; i++ {
			tm, raws := world.Step()
			sys.Ingest(tm, raws)
		}
		before := sys.Stats()
		reg.Evaluate()
		after := sys.Stats()
		if after.RangeQueries > before.RangeQueries {
			refreshed = true
		}
	}
	if !refreshed {
		t.Error("event-driven registry never refreshed despite movement")
	}
	_ = id
}
