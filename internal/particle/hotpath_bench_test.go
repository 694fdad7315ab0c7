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

// The hot-path benchmarks keep the sub-benchmark name "indexed" (the
// coverage-index kernel) so cmd/benchjson compares them against the
// checked-in BENCH_N.json rows of the same name.

// benchFilter builds a filter on the paper's default deployment
// (DefaultOffice, 19 readers at 2 m range).
func benchFilter(tb testing.TB) *Filter {
	tb.Helper()
	plan := floorplan.DefaultOffice()
	g, err := walkgraph.Build(plan)
	if err != nil {
		tb.Fatal(err)
	}
	dep, err := rfid.DeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	if err != nil {
		tb.Fatal(err)
	}
	return MustNew(DefaultConfig(), g, dep)
}

// spreadState initializes a particle set covering a realistic spread — the
// cloud of a reader detection after a few seconds of coasting — and leaves
// it loaded in the returned pool.
func spreadState(f *Filter, seed int64) (*State, *Pool, *rng.Source) {
	src := rng.Derive(seed)
	st := f.InitAt(src, 1, 3, 0)
	pool := NewPool()
	f.AdvancePool(pool, src, st, nil, 4) // coast a few silent seconds to spread out
	return st, pool, src
}

// BenchmarkFilterStep measures one full filter second on the detected path:
// motion step, reweight against the detecting reader, normalization,
// systematic resampling, and roughening, for the paper's Ns=64 particles,
// through the pooled entry point the engine uses.
func BenchmarkFilterStep(b *testing.B) {
	f := benchFilter(b)
	b.Run("indexed", func(b *testing.B) {
		st, pool, src := spreadState(f, 42)
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

// BenchmarkNegativeUpdate measures the silent-second observation: the
// batched covered-by-any-reader predicate for every particle plus the
// conditional degeneracy resampling.
func BenchmarkNegativeUpdate(b *testing.B) {
	f := benchFilter(b)
	b.Run("indexed", func(b *testing.B) {
		_, pool, src := spreadState(f, 43)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.negativeUpdateSoA(pool, src)
		}
	})
}

// BenchmarkInitAt measures particle-set initialization within a reader's
// activation range (the filter's start, also the draws of the
// kidnapped-robot recovery).
func BenchmarkInitAt(b *testing.B) {
	f := benchFilter(b)
	b.Run("indexed", func(b *testing.B) {
		src := rng.Derive(44)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.InitAt(src, 1, model.ReaderID(i%f.dep.NumReaders()), 0)
		}
	})
}

// BenchmarkReweight isolates the positive-observation predicate (covered by
// the detecting reader, outside rooms and stairwells) as the kernel asks it:
// one batch question over the pool's arrays, without the resampling that
// follows.
func BenchmarkReweight(b *testing.B) {
	f := benchFilter(b)
	b.Run("indexed", func(b *testing.B) {
		_, pool, _ := spreadState(f, 45)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.cov.BatchDetectableBy(3, pool.edge, pool.offset, pool.covered)
		}
	})
}

// requireAllocFreeSeconds warms a fresh pool up on st and fails t unless a
// detected second, a silent second and the kidnapped-robot recovery (a
// detection at a far-away reader no particle is consistent with) each advance
// st with zero heap allocations. It returns the detected-second advance.
func requireAllocFreeSeconds(t *testing.T, f *Filter, src *rng.Source, st *State) (detected func()) {
	t.Helper()
	pool := NewPool()
	entry := []model.AggregatedReading{{Object: 1}}
	detected = func() {
		next := st.Time + 1
		entry[0].Time, entry[0].Reader = next, 3
		f.AdvancePool(pool, src, st, entry, next)
	}
	silent := func() {
		f.AdvancePool(pool, src, st, nil, st.Time+1)
	}
	far := model.ReaderID(3)
	recovery := func() {
		next := st.Time + 1
		far = model.ReaderID((int(far) + 7) % f.dep.NumReaders())
		entry[0].Time, entry[0].Reader = next, far
		f.AdvancePool(pool, src, st, entry, next)
	}
	// Warm up: size the pool's arrays and schedule, and cover a silent
	// second once.
	detected()
	silent()
	for _, c := range []struct {
		name string
		fn   func()
	}{{"silent", silent}, {"detected", detected}, {"recovery", recovery}} {
		if allocs := testing.AllocsPerRun(200, c.fn); allocs != 0 {
			t.Errorf("pooled %s advance allocates %v times per run, want 0", c.name, allocs)
		}
	}
	return detected
}

// TestSteadyStateAdvanceZeroAllocs pins the per-second filter loop: once the
// pool's arrays exist, the pooled advance performs zero heap allocations.
func TestSteadyStateAdvanceZeroAllocs(t *testing.T) {
	f := benchFilter(t)
	src := rng.Derive(46)
	requireAllocFreeSeconds(t, f, src, f.InitAt(src, 1, 3, 0))
}

// TestFullStepZeroAllocs extends the pin to the entire engine-shaped step:
// with stage telemetry attached the pooled advance still allocates nothing,
// the trailing anchor-snap discretization may allocate only its result,
// never per-particle or per-second garbage, and asking for the snap again
// before the particles move — a memo hit — allocates nothing at all.
func TestFullStepZeroAllocs(t *testing.T) {
	f := benchFilter(t)
	r := obs.NewRegistry()
	f.Instrument(Metrics{
		Predict:  r.Histogram("p", "x", nil),
		Reweight: r.Histogram("w", "x", nil),
		Resample: r.Histogram("r", "x", nil),
	})
	idx, err := anchor.BuildIndex(f.g, anchor.DefaultSpacing)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.Derive(48)
	st := f.InitAt(src, 1, 3, 0)
	detected := requireAllocFreeSeconds(t, f, src, st)

	var acc anchor.Accumulator
	fullStep := func() {
		detected()
		if dist := st.AnchorDist(idx, &acc); dist.Len() == 0 {
			t.Fatal("empty distribution")
		}
	}
	// The anchor snap returns a freshly built distribution: its two parallel
	// slices and nothing else, the accumulator being the worker's scratch.
	fullStep()
	if allocs := testing.AllocsPerRun(200, fullStep); allocs > 2 {
		t.Errorf("full step (advance + snap) allocates %v times per run, want <= 2 (the result's two slices)", allocs)
	}
	again := func() {
		if _, ok := st.MemoDist(idx); !ok {
			t.Fatal("no memo after a snap")
		}
		st.AnchorDist(idx, &acc)
	}
	if allocs := testing.AllocsPerRun(200, again); allocs != 0 {
		t.Errorf("memo-hit snap allocates %v times per run, want 0", allocs)
	}
}

// TestZeroStepAdvanceIsNoop pins the cache-hit path of a repeated query: an
// advance with no new detection and no second to step — asked again in the
// same stream second, with only stale readings, or after the coast limit —
// leaves particles, time stamps, the memoized distribution, the random
// stream and the pool exactly as they were, counts no work, and allocates
// nothing.
func TestZeroStepAdvanceIsNoop(t *testing.T) {
	f := benchFilter(t)
	idx, err := anchor.BuildIndex(f.g, anchor.DefaultSpacing)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool()
	var acc anchor.Accumulator
	stale := []model.AggregatedReading{{Object: 1, Reader: 3, Time: 1}, {Object: 1, Reader: 3, Time: 2}}
	coasted := f.InitAt(rng.Derive(50), 1, 3, 0)
	f.AdvancePool(pool, rng.Derive(51), coasted, nil, 500) // stops at the coast limit
	for _, c := range []struct {
		name string
		st   *State
		call func(*State, *rng.Source)
	}{
		{"same second", nil, func(st *State, src *rng.Source) { f.AdvancePool(pool, src, st, nil, st.Time) }},
		{"stale readings", nil, func(st *State, src *rng.Source) { f.AdvancePool(pool, src, st, stale, st.Time) }},
		{"clock behind the state", nil, func(st *State, src *rng.Source) { f.AdvancePool(pool, src, st, stale, st.Time-1) }},
		{"past the coast limit", coasted, func(st *State, src *rng.Source) { f.AdvancePool(pool, src, st, nil, st.Time+100) }},
	} {
		st := c.st
		if st == nil {
			st = f.InitAt(rng.Derive(52), 1, 3, 0)
			f.AdvancePool(pool, rng.Derive(53), st, stale, 4)
		}
		want := st.Clone()
		memo := st.AnchorDist(idx, &acc)
		src := rng.Derive(54)
		wantSrc, wantGen := *src, pool.gen
		c.call(st, src)
		if !statesEqual(st, want) {
			t.Fatalf("%s: the no-op advance moved the state", c.name)
		}
		if got, ok := st.MemoDist(idx); !ok || &got.IDs[0] != &memo.IDs[0] {
			t.Fatalf("%s: the no-op advance dropped the memoized distribution", c.name)
		}
		if *src != wantSrc || pool.gen != wantGen {
			t.Fatalf("%s: the no-op advance drew randomness or stored into the pool", c.name)
		}
		if rs := st.LastRun; rs.From != st.Time || rs.To != st.Time || rs.Steps+rs.Detections+rs.Resamples != 0 || rs.ESS != want.LastRun.ESS {
			t.Fatalf("%s: LastRun = %+v, want an empty window at %d with the ESS kept", c.name, rs, st.Time)
		}
		if allocs := testing.AllocsPerRun(100, func() { c.call(st, src) }); allocs != 0 {
			t.Errorf("%s: the no-op advance allocates %v times per run, want 0", c.name, allocs)
		}
	}
}
