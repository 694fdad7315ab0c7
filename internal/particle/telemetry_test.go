package particle

import (
	"testing"

	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/walkgraph"
)

func instrumentedFilter(t testing.TB) (*Filter, Metrics) {
	t.Helper()
	plan := floorplan.DefaultOffice()
	g := walkgraph.MustBuild(plan)
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	f := MustNew(DefaultConfig(), g, dep)
	r := obs.NewRegistry()
	m := Metrics{
		Predict:  r.Histogram("repro_filter_predict_seconds", "x", nil),
		Reweight: r.Histogram("repro_filter_reweight_seconds", "x", nil),
		Resample: r.Histogram("repro_filter_resample_seconds", "x", nil),
	}
	f.Instrument(m)
	return f, m
}

// TestInstrumentedAdvanceZeroAllocs: with stage histograms attached, the
// per-second filter loop must still perform zero heap allocations —
// instrumentation may cost clock reads, never garbage.
func TestInstrumentedAdvanceZeroAllocs(t *testing.T) {
	f, _ := instrumentedFilter(t)
	pool := NewPool()
	src := rng.Derive(46)
	st := f.InitAt(src, 1, 3, 0)
	entry := []model.AggregatedReading{{Object: 1, Reader: 3}}

	detected := func() {
		next := st.Time + 1
		entry[0].Time = next
		f.AdvancePool(pool, src, st, entry, next)
	}
	silent := func() {
		f.AdvancePool(pool, src, st, nil, st.Time+1)
	}
	// Warm up: the first calls size the pool's arrays and schedule.
	detected()
	silent()

	if allocs := testing.AllocsPerRun(200, detected); allocs != 0 {
		t.Errorf("instrumented detected-second Advance allocates %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, silent); allocs != 0 {
		t.Errorf("instrumented silent-second Advance allocates %v times per run, want 0", allocs)
	}
}

// TestStageTimingsRecorded checks that an instrumented run fills LastRun
// and the stage sinks coherently: every advanced second is a predict step,
// detected seconds resample, and the predict histogram holds exactly the
// call's predict time.
func TestStageTimingsRecorded(t *testing.T) {
	f, m := instrumentedFilter(t)
	src := rng.Derive(47)
	st := f.InitAt(src, 1, 3, 0)
	entries := []model.AggregatedReading{
		{Object: 1, Reader: 3, Time: 1},
		{Object: 1, Reader: 3, Time: 2},
	}
	f.AdvancePool(NewPool(), src, st, entries, 4)

	rs := st.LastRun
	if rs.From != 0 || rs.To != 4 {
		t.Errorf("window = [%d, %d], want [0, 4]", rs.From, rs.To)
	}
	if rs.Steps != 4 {
		t.Errorf("Steps = %d, want 4", rs.Steps)
	}
	if rs.Detections != 2 || rs.Resamples > 2 {
		t.Errorf("Detections = %d, Resamples = %d", rs.Detections, rs.Resamples)
	}
	if rs.Predict <= 0 {
		t.Errorf("Predict duration = %v", rs.Predict)
	}
	if rs.ESS <= 0 || rs.ESS > float64(len(st.Particles()))+1e-9 {
		t.Errorf("ESS = %v with Ns = %d", rs.ESS, len(st.Particles()))
	}
	if got := m.Predict.Count(); got != 1 {
		t.Errorf("predict histogram observations = %d, want 1", got)
	}
	if m.Predict.Sum() != rs.Predict.Seconds() {
		t.Errorf("histogram sum %v != LastRun predict %v", m.Predict.Sum(), rs.Predict.Seconds())
	}
}

// TestInstrumentationPreservesResults proves telemetry is purely passive:
// the same seed produces bit-for-bit identical particle states with and
// without instrumentation, and the same RunStats but for the stage
// durations, which only the instrumented filter measures.
func TestInstrumentationPreservesResults(t *testing.T) {
	plan := floorplan.DefaultOffice()
	g := walkgraph.MustBuild(plan)
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	plain := MustNew(DefaultConfig(), g, dep)
	timed := MustNew(DefaultConfig(), g, dep)
	timed.Instrument(Metrics{})

	entries := []model.AggregatedReading{
		{Object: 7, Reader: 2, Time: 1},
		{Object: 7, Reader: 2, Time: 3},
		{Object: 7, Reader: 5, Time: 9},
	}
	a, err := plain.RunPool(NewPool(), rng.Derive(99), 7, entries, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := timed.RunPool(NewPool(), rng.Derive(99), 7, entries, 20)
	if err != nil {
		t.Fatal(err)
	}
	pas, pbs := a.Particles(), b.Particles()
	if len(pas) != len(pbs) {
		t.Fatalf("particle counts differ: %d vs %d", len(pas), len(pbs))
	}
	for i := range pas {
		pa, pb := pas[i], pbs[i]
		if pa != pb {
			t.Fatalf("particle %d differs: %+v vs %+v", i, pa, pb)
		}
	}
	if b.LastRun.Steps == 0 {
		t.Error("instrumented run recorded no steps")
	}
	counts := b.LastRun
	counts.Predict, counts.Reweight, counts.Resample = 0, 0, 0
	if a.LastRun != counts {
		t.Errorf("uninstrumented RunStats %+v, want the instrumented counts %+v and no durations", a.LastRun, counts)
	}
}
