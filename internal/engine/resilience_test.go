package engine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/rfid"
	"repro/internal/sim"
)

// clone copies a reading slice so two engines never share backing storage.
func clone(raws []model.RawReading) []model.RawReading {
	out := make([]model.RawReading, len(raws))
	copy(out, raws)
	return out
}

// resultSetsEqual compares two result sets bit for bit.
func resultSetsEqual(a, b model.ResultSet) bool {
	return len(a) == len(b) && reflect.DeepEqual(a, b)
}

// TestHealthCompensationPassivity: with every reader LIVE, the whole health
// layer must be bit-for-bit invisible — a health-enabled engine and a
// health-disabled engine fed the identical clean stream produce identical
// preprocessing tables and identical query answers, and the context-aware
// query path with an unbounded context matches the plain path exactly.
func TestHealthCompensationPassivity(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)

	cfgOn := DefaultConfig()
	cfgOn.Seed = 11
	if !cfgOn.Health.Enabled {
		t.Fatal("default config must enable health monitoring")
	}
	cfgOff := DefaultConfig()
	cfgOff.Seed = 11
	cfgOff.Health = health.Config{}

	sysOn := MustNew(plan, dep, cfgOn)
	sysOff := MustNew(plan, dep, cfgOff)

	world := sim.MustNew(sysOn.Graph(), rfid.NewSensor(dep), sim.DefaultTraceConfig(), 77)
	for i := 0; i < 200; i++ {
		tm, raws := world.Step()
		if err := sysOn.Ingest(tm, clone(raws)); err != nil {
			t.Fatal(err)
		}
		if err := sysOff.Ingest(tm, clone(raws)); err != nil {
			t.Fatal(err)
		}
	}

	for _, h := range sysOn.ReaderHealth() {
		if h.State != health.Live {
			t.Fatalf("reader %d is %s on a clean stream; passivity check would be vacuous", h.Reader, h.StateName)
		}
	}

	objs := sysOn.Collector().KnownObjects()
	if len(objs) == 0 {
		t.Fatal("no objects known")
	}
	tabOn, tabOff := sysOn.Preprocess(objs), sysOff.Preprocess(objs)
	for _, obj := range objs {
		dOn, dOff := tabOn.DistributionOf(obj), tabOff.DistributionOf(obj)
		if !reflect.DeepEqual(dOn, dOff) {
			t.Fatalf("object %d distribution diverges between health-on and health-off", obj)
		}
	}

	win := geom.Rect{Min: geom.Pt(5, 5), Max: geom.Pt(30, 25)}
	rsOn, rsOff := sysOn.RangeQuery(win), sysOff.RangeQuery(win)
	if !resultSetsEqual(rsOn, rsOff) {
		t.Fatalf("range answers diverge: on=%v off=%v", rsOn, rsOff)
	}
	q := dep.Reader(0).Pos
	if !resultSetsEqual(sysOn.KNNQuery(q, 5), sysOff.KNNQuery(q, 5)) {
		t.Fatal("kNN answers diverge between health-on and health-off")
	}

	// The deadline-aware path with an unbounded context is the plain path.
	rsCtx, err := sysOn.RangeQueryContext(context.Background(), win)
	if err != nil {
		t.Fatalf("unbounded-context range query errored: %v", err)
	}
	if !resultSetsEqual(rsCtx, rsOn) {
		t.Fatal("RangeQueryContext(background) diverges from RangeQuery")
	}
	rsCtx, err = sysOn.KNNQueryContext(context.Background(), q, 5)
	if err != nil {
		t.Fatalf("unbounded-context knn query errored: %v", err)
	}
	if !resultSetsEqual(rsCtx, sysOn.KNNQuery(q, 5)) {
		t.Fatal("KNNQueryContext(background) diverges from KNNQuery")
	}
}

// outageFixture drives two engines — health compensation on and off — through
// the identical degraded stream: a warmup phase, then a scheduled outage of
// the busiest reader injected by the fault layer.
type outageFixture struct {
	world      *sim.Simulator
	sysOn      *System
	sysOff     *System
	dep        *rfid.Deployment
	dead       model.ReaderID
	outageFrom model.Time
	outageTo   model.Time
}

func newOutageFixture(t *testing.T) *outageFixture {
	t.Helper()
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)

	cfgOn := DefaultConfig()
	cfgOn.Seed = 3
	cfgOff := DefaultConfig()
	cfgOff.Seed = 3
	cfgOff.Health = health.Config{}

	sysOn := MustNew(plan, dep, cfgOn)
	sysOff := MustNew(plan, dep, cfgOff)

	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 25
	tc.DwellMin, tc.DwellMax = 2, 6
	world := sim.MustNew(sysOn.Graph(), rfid.NewSensor(dep), tc, 42)

	// Warmup: clean traffic while counting per-reader readings, so the outage
	// hits the busiest reader (a dead quiet reader would make the test vacuous).
	const warmup = 80
	perReader := make([]int, dep.NumReaders())
	for i := 0; i < warmup; i++ {
		tm, raws := world.Step()
		for _, r := range raws {
			if r.Reader >= 0 && int(r.Reader) < len(perReader) {
				perReader[r.Reader]++
			}
		}
		sysOn.Ingest(tm, clone(raws))
		sysOff.Ingest(tm, clone(raws))
	}
	dead := model.ReaderID(0)
	for id, n := range perReader {
		if n > perReader[dead] {
			dead = model.ReaderID(id)
		}
	}
	if perReader[dead] == 0 {
		t.Fatal("warmup produced no readings")
	}

	return &outageFixture{
		world: world, sysOn: sysOn, sysOff: sysOff, dep: dep,
		dead: dead, outageFrom: warmup + 1, outageTo: 280,
	}
}

// drive runs the outage, feeding both engines the identical degraded stream.
// When each is non-nil it is invoked after every ingested second, so tests
// can evaluate queries at checkpoints throughout the outage.
func (f *outageFixture) drive(each func(now model.Time)) {
	inj := sim.MustNewInjector(sim.FaultConfig{
		Outages: []sim.Outage{{Reader: f.dead, From: f.outageFrom, To: f.outageTo}},
	}, f.dep.NumReaders(), 9)
	for f.world.Now() < f.outageTo {
		tm, raws := f.world.Step()
		for _, b := range inj.Apply(tm, raws) {
			f.sysOn.Ingest(b.Time, clone(b.Readings))
			f.sysOff.Ingest(b.Time, clone(b.Readings))
		}
		if each != nil {
			each(tm)
		}
	}
}

// TestOutageCompensationRecall: with the busiest reader dark, the compensated
// engine must (a) actually flag the reader and (b) keep at least as much
// probability mass on the true answers of range and kNN queries around the
// dead reader as the uncompensated engine. The uncompensated filter treats
// the dead reader's silence as negative evidence and confidently pushes mass
// away from where the objects really are; suppressing that penalty can only
// help recall.
func TestOutageCompensationRecall(t *testing.T) {
	f := newOutageFixture(t)
	pos := f.dep.Reader(f.dead).Pos
	// The query window sits inside the dead reader's activation circle: the
	// objects truly in it are exactly the ones no live reader can see, which
	// is where the uncompensated filter's negative evidence is wrong.
	r := f.dep.Reader(f.dead).Range * 0.75
	win := geom.Rect{Min: geom.Pt(pos.X-r, pos.Y-r), Max: geom.Pt(pos.X+r, pos.Y+r)}
	const k = 5

	var recOn, recOff float64 // summed range-recall mass over checkpoints
	var hitOn, hitOff, kTot int
	checkpoints := 0
	f.drive(func(now model.Time) {
		// Evaluate once the monitor has had time to notice, every 5 seconds.
		if now < f.outageFrom+20 || (now-f.outageFrom)%5 != 0 {
			return
		}
		if truth := f.world.TrueRange(win); len(truth) > 0 {
			rsOn, rsOff := f.sysOn.RangeQuery(win), f.sysOff.RangeQuery(win)
			for _, obj := range truth {
				recOn += rsOn[obj] / float64(len(truth))
				recOff += rsOff[obj] / float64(len(truth))
			}
			checkpoints++
		}
		trueK := f.world.TrueKNN(pos, k)
		inTrue := make(map[model.ObjectID]bool, len(trueK))
		for _, obj := range trueK {
			inTrue[obj] = true
		}
		for _, obj := range query.TopKObjects(f.sysOn.KNNQuery(pos, k), k) {
			if inTrue[obj] {
				hitOn++
			}
		}
		for _, obj := range query.TopKObjects(f.sysOff.KNNQuery(pos, k), k) {
			if inTrue[obj] {
				hitOff++
			}
		}
		kTot += len(trueK)
	})

	rh := f.sysOn.ReaderHealth()
	if rh[f.dead].State == health.Live {
		t.Fatalf("monitor never flagged reader %d (rate=%v missed=%v); recall comparison would be vacuous",
			f.dead, rh[f.dead].Rate, rh[f.dead].Missed)
	}
	t.Logf("reader %d is %s at outage end", f.dead, rh[f.dead].StateName)
	if checkpoints == 0 {
		t.Fatal("no checkpoint had objects truly inside the outage window; pick a different seed")
	}

	recOn /= float64(checkpoints)
	recOff /= float64(checkpoints)
	t.Logf("range recall over %d checkpoints: compensated=%.4f uncompensated=%.4f", checkpoints, recOn, recOff)
	if recOn < recOff-1e-9 {
		t.Errorf("compensated range recall %.4f below uncompensated %.4f", recOn, recOff)
	}
	t.Logf("kNN@%d recall: compensated=%d/%d uncompensated=%d/%d", k, hitOn, kTot, hitOff, kTot)
	if hitOn < hitOff {
		t.Errorf("compensated kNN recall %d below uncompensated %d", hitOn, hitOff)
	}
}

// TestOutagePrunerSoundness: while the reader is dark, the widened uncertain
// regions must keep every true answer in the candidate set — the pruner may
// widen (admit more) but never prune an object that is really inside the
// query window.
func TestOutagePrunerSoundness(t *testing.T) {
	f := newOutageFixture(t)
	pos := f.dep.Reader(f.dead).Pos
	windows := []geom.Rect{
		{Min: geom.Pt(pos.X-9, pos.Y-9), Max: geom.Pt(pos.X+9, pos.Y+9)},
		{Min: geom.Pt(pos.X-4, pos.Y-4), Max: geom.Pt(pos.X+4, pos.Y+4)},
		{Min: geom.Pt(0, 0), Max: geom.Pt(20, 20)},
	}
	checks := 0
	f.drive(func(now model.Time) {
		if (now-f.outageFrom)%15 != 0 {
			return
		}
		known := make(map[model.ObjectID]bool)
		for _, obj := range f.sysOn.Collector().KnownObjects() {
			known[obj] = true
		}
		for _, win := range windows {
			cands := f.sysOn.RangeCandidates([]geom.Rect{win})
			inCands := make(map[model.ObjectID]bool, len(cands))
			for _, obj := range cands {
				inCands[obj] = true
			}
			for _, obj := range f.world.TrueRange(win) {
				if known[obj] {
					checks++
					if !inCands[obj] {
						t.Errorf("t=%d window %v: true answer %d pruned during outage", now, win, obj)
					}
				}
			}
		}
	})
	if checks == 0 {
		t.Fatal("soundness check was vacuous: no true answers in any window at any checkpoint")
	}
	t.Logf("verified %d true answers across checkpoints stayed in the candidate sets", checks)
}

// TestDeadlineReturnsTypedPartial: a context that is already out of budget
// must surface a *query.DeadlineError naming the stage, satisfy
// errors.Is(err, context.DeadlineExceeded) via unwrapping, and still return a
// usable (possibly empty) partial result rather than panicking or blocking.
func TestDeadlineReturnsTypedPartial(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := DefaultConfig()
	cfg.Seed = 2
	sys := MustNew(plan, dep, cfg)
	world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), sim.DefaultTraceConfig(), 13)
	for i := 0; i < 60; i++ {
		tm, raws := world.Step()
		sys.Ingest(tm, raws)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done() // deadline certainly expired

	win := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(40, 30)}
	rs, err := sys.RangeQueryContext(ctx, win)
	if err == nil {
		t.Fatal("expired context produced no error")
	}
	de, ok := IsDeadline(err)
	if !ok {
		t.Fatalf("error %v is not a *query.DeadlineError", err)
	}
	if de.Stage == "" {
		t.Error("deadline error has no stage")
	}
	if rs == nil {
		t.Error("partial result is nil; want an (empty) result set")
	}
	t.Logf("range deadline overrun at stage %q with %d partial entries", de.Stage, len(rs))

	rs, err = sys.KNNQueryContext(ctx, dep.Reader(0).Pos, 3)
	if _, ok := IsDeadline(err); !ok {
		t.Fatalf("knn under expired context: error %v is not a deadline error", err)
	}
	if rs == nil {
		t.Error("knn partial result is nil")
	}

	// A generous deadline must complete without error and match the plain path.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30e9)
	defer cancel2()
	rs2, err := sys.RangeQueryContext(ctx2, win)
	if err != nil {
		t.Fatalf("generous deadline still expired: %v", err)
	}
	if !resultSetsEqual(rs2, sys.RangeQuery(win)) {
		t.Fatal("completed deadline query diverges from plain query")
	}
}
