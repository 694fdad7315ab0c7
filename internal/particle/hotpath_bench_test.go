package particle

import (
	"testing"

	"repro/internal/anchor"
	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/walkgraph"
)

// benchSetup builds the paper's default deployment (DefaultOffice, 19
// readers at 2 m range) and one filter per coverage path.
func benchSetup(b *testing.B) (*walkgraph.Graph, *rfid.Deployment, map[string]*Filter) {
	b.Helper()
	plan := floorplan.DefaultOffice()
	g, err := walkgraph.Build(plan)
	if err != nil {
		b.Fatal(err)
	}
	dep, err := rfid.DeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	if err != nil {
		b.Fatal(err)
	}
	cfgGeo := DefaultConfig()
	cfgGeo.DisableCoverageIndex = true
	return g, dep, map[string]*Filter{
		"indexed":   MustNew(DefaultConfig(), g, dep),
		"geometric": MustNew(cfgGeo, g, dep),
	}
}

// spreadState initializes a particle set covering a realistic spread: the
// cloud of a reader detection after a few seconds of coasting.
func spreadState(f *Filter, seed int64) (*State, *rng.Source) {
	src := rng.Derive(seed)
	st := f.InitAt(src, 1, 3, 0)
	f.Advance(src, st, nil, 4) // coast a few silent seconds to spread out
	return st, src
}

// BenchmarkFilterStep measures one full filter second on the detected path:
// motion step, reweight against the detecting reader, normalization,
// systematic resampling, and roughening, for the paper's Ns=64 particles.
// Both paths run through the pooled entry point the engine uses: "indexed"
// executes the SoA kernel, "geometric" falls back to the scalar reference.
func BenchmarkFilterStep(b *testing.B) {
	_, _, filters := benchSetup(b)
	pool := NewPool()
	for _, name := range []string{"indexed", "geometric"} {
		f := filters[name]
		b.Run(name, func(b *testing.B) {
			st, src := spreadState(f, 42)
			entry := []model.AggregatedReading{{Object: 1, Reader: 3}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next := st.Time + 1
				entry[0].Time = next
				f.AdvancePool(pool, src, st, entry, next)
			}
		})
	}
}

// BenchmarkNegativeUpdate measures the silent-second observation: the
// covered-by-any-reader test for every particle plus the conditional
// degeneracy resampling.
func BenchmarkNegativeUpdate(b *testing.B) {
	_, _, filters := benchSetup(b)
	for _, name := range []string{"indexed", "geometric"} {
		f := filters[name]
		b.Run(name, func(b *testing.B) {
			st, src := spreadState(f, 43)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.negativeUpdate(src, st)
			}
		})
	}
}

// BenchmarkInitAt measures particle-set initialization within a reader's
// activation range (the filter (re)start path, also hit by the
// kidnapped-robot recovery).
func BenchmarkInitAt(b *testing.B) {
	_, dep, filters := benchSetup(b)
	for _, name := range []string{"indexed", "geometric"} {
		f := filters[name]
		b.Run(name, func(b *testing.B) {
			src := rng.Derive(44)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reader := model.ReaderID(i % dep.NumReaders())
				f.InitAt(src, 1, reader, 0)
			}
		})
	}
}

// BenchmarkReweight isolates the positive-observation predicate (covered by
// the detecting reader, outside rooms and stairwells) without the resampling
// that follows it.
func BenchmarkReweight(b *testing.B) {
	_, _, filters := benchSetup(b)
	for _, name := range []string{"indexed", "geometric"} {
		f := filters[name]
		b.Run(name, func(b *testing.B) {
			st, _ := spreadState(f, 45)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.reweight(st.Particles, 3)
			}
		})
	}
}

// TestSteadyStateAdvanceZeroAllocs verifies the satellite contract: once a
// state's scratch buffers exist, the per-second filter loop — detected and
// silent seconds alike — performs zero heap allocations.
func TestSteadyStateAdvanceZeroAllocs(t *testing.T) {
	plan := floorplan.DefaultOffice()
	g := walkgraph.MustBuild(plan)
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	f := MustNew(DefaultConfig(), g, dep)

	src := rng.Derive(46)
	st := f.InitAt(src, 1, 3, 0)
	entry := []model.AggregatedReading{{Object: 1, Reader: 3}}

	detected := func() {
		next := st.Time + 1
		entry[0].Time = next
		f.Advance(src, st, entry, next)
	}
	silent := func() {
		f.Advance(src, st, nil, st.Time+1)
	}
	// Warm up: first calls build the scratch slice and the byTime map.
	detected()
	silent()

	if allocs := testing.AllocsPerRun(200, detected); allocs != 0 {
		t.Errorf("detected-second Advance allocates %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, silent); allocs != 0 {
		t.Errorf("silent-second Advance allocates %v times per run, want 0", allocs)
	}
}

// TestFullStepZeroAllocs extends the alloc pin to the entire engine-shaped
// step: the pooled (SoA-kernel) advance with stage telemetry attached must
// stay at zero allocations — detected seconds, silent seconds, and the
// kidnapped-robot recovery path alike — and the trailing anchor-snap
// discretization may allocate only its result map, never per-particle or
// per-second garbage.
func TestFullStepZeroAllocs(t *testing.T) {
	plan := floorplan.DefaultOffice()
	g := walkgraph.MustBuild(plan)
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	f := MustNew(DefaultConfig(), g, dep)
	r := obs.NewRegistry()
	f.Instrument(Metrics{
		Predict:       r.Histogram("p", "x", nil),
		Reweight:      r.Histogram("w", "x", nil),
		Resample:      r.Histogram("r", "x", nil),
		ParticleSteps: r.Counter("s", "x"),
	})
	idx, err := anchor.BuildIndex(g, anchor.DefaultSpacing)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewPool()
	src := rng.Derive(48)
	st := f.InitAt(src, 1, 3, 0)
	entry := []model.AggregatedReading{{Object: 1, Reader: 3}}

	detected := func() {
		next := st.Time + 1
		entry[0].Time = next
		f.AdvancePool(pool, src, st, entry, next)
	}
	// A far-away reader forces the recovery re-initialization inside the
	// kernel (no particle is consistent with the detection).
	recovery := func() {
		next := st.Time + 1
		entry[0].Time = next
		entry[0].Reader = model.ReaderID((int(entry[0].Reader) + 7) % dep.NumReaders())
		f.AdvancePool(pool, src, st, entry, next)
	}
	var acc anchor.Accumulator
	fullStep := func() {
		detected()
		if dist := st.AnchorDist(idx, &acc); dist.Len() == 0 {
			t.Fatal("empty distribution")
		}
	}
	// Warm up: build scratch, pool arrays, and the telemetry plumbing, and
	// cover a pooled silent second once.
	detected()
	f.AdvancePool(pool, src, st, nil, st.Time+1)
	silent := func() {
		f.AdvancePool(pool, src, st, nil, st.Time+1)
	}
	if allocs := testing.AllocsPerRun(200, silent); allocs != 0 {
		t.Errorf("pooled instrumented silent advance allocates %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, detected); allocs != 0 {
		t.Errorf("pooled instrumented detected advance allocates %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, recovery); allocs != 0 {
		t.Errorf("pooled recovery advance allocates %v times per run, want 0", allocs)
	}
	entry[0].Reader = 3
	// The anchor snap returns a freshly built distribution: its two parallel
	// slices and nothing else, the accumulator being the worker's scratch.
	fullStep()
	if allocs := testing.AllocsPerRun(200, fullStep); allocs > 2 {
		t.Errorf("full step (advance + snap) allocates %v times per run, want <= 2 (the result's two slices)", allocs)
	}
}
