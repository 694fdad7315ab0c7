package particle

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/walkgraph"
)

// randomSetup builds a random floorplan, walking graph, and deployment for
// an equivalence trial.
func randomSetup(t *testing.T, trial int) (*walkgraph.Graph, *rfid.Deployment) {
	t.Helper()
	src := rng.New(int64(9000 + trial))
	plan := floorplan.RandomOffice(src, 1+trial%3)
	g, err := walkgraph.Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := rfid.DeployUniform(plan, 4+trial%16, 1.5+0.1*float64(trial%10))
	if err != nil {
		t.Fatal(err)
	}
	return g, dep
}

// randomEntries synthesizes an aggregated reading stream: bursts of
// detections at randomly chosen readers separated by silent stretches, the
// mix that drives the filter through initialization, reweighting, the
// kidnapped-robot recovery, and the negative update.
func randomEntries(src *rng.Source, dep *rfid.Deployment, seconds int) []model.AggregatedReading {
	var entries []model.AggregatedReading
	reader := model.ReaderID(src.Intn(dep.NumReaders()))
	for t := 0; t < seconds; t++ {
		switch {
		case t == 0 || src.Bool(0.45):
			if src.Bool(0.15) {
				reader = model.ReaderID(src.Intn(dep.NumReaders()))
			}
			entries = append(entries, model.AggregatedReading{
				Object: 1, Reader: reader, Time: model.Time(t),
			})
		default:
			// Silent second: no entry at all.
		}
	}
	return entries
}

// statesEqual compares the observable filter output bit-for-bit: a kernel
// state against the oracle's, or, through view, against another kernel
// state.
func statesEqual(a *State, b *aosState) bool {
	ps := a.Particles()
	if a.Object != b.Object || a.Time != b.Time || a.LastReadingTime != b.LastReadingTime ||
		len(ps) != len(b.Particles) {
		return false
	}
	for i := range ps {
		if ps[i] != b.Particles[i] {
			return false
		}
	}
	return true
}

// matchOracle fails unless the kernel's state and run statistics equal the
// oracle's: particles to the last bit, and every RunStats field but the
// stage durations.
func matchOracle(t *testing.T, what string, got *State, want *aosState, gotRS, wantRS RunStats) {
	t.Helper()
	if !statesEqual(got, want) {
		t.Fatalf("%s: kernel and geometric oracle diverged\nkernel: %+v\noracle: %+v", what, view(got), want)
	}
	if gotRS.From != wantRS.From || gotRS.To != wantRS.To || gotRS.Steps != wantRS.Steps ||
		gotRS.Detections != wantRS.Detections || gotRS.Resamples != wantRS.Resamples || gotRS.ESS != wantRS.ESS {
		t.Fatalf("%s: RunStats diverged: kernel %+v, oracle %+v", what, gotRS, wantRS)
	}
}

// TestIndexedFilterMatchesGeometricBitForBit is the determinism contract of
// the kernel: on 50 random floorplans × {Systematic, Multinomial} × {every
// reader healthy, at least one unhealthy}, an instrumented RunPool followed
// by an AdvancePool over a second batch of readings must produce exactly the
// particle set of the paper's geometric formulation (oracle_test.go) — same
// locations, directions, speeds, resting flags and weights, down to the last
// bit — and the same step, detection and resample counts and ESS. Both
// consume the same random stream, so any divergence in motion, a coverage
// predicate, recovery, resampling or roughening desynchronizes them visibly.
func TestIndexedFilterMatchesGeometricBitForBit(t *testing.T) {
	pool := NewPool() // shared across trials, like an engine worker's pool
	for trial := 0; trial < 50; trial++ {
		g, dep := randomSetup(t, trial)
		cov := rfid.BuildCoverage(g, dep)
		variant := 0
		for _, resample := range []Resampler{Systematic, Multinomial} {
			for _, sick := range []bool{false, true} {
				variant++
				what := fmt.Sprintf("trial %d, resampler %d, unhealthy readers %v", trial, resample, sick)
				cfg := DefaultConfig()
				cfg.Resample = resample
				f, err := NewWithCoverage(cfg, g, dep, cov)
				if err != nil {
					t.Fatal(err)
				}
				f.Instrument(Metrics{})
				src := rng.New(int64(5000 + 4*trial + variant))
				var un []bool // nil: every reader healthy
				if sick {
					un = make([]bool, dep.NumReaders())
					un[src.Intn(len(un))] = true
					for i := range un {
						un[i] = un[i] || src.Bool(0.2)
					}
					f.SetUnhealthy(un)
				}
				o := &oracle{cfg: cfg, g: g, dep: dep, unhealthy: un}
				seed := int64(4*trial + variant)

				entries := randomEntries(src, dep, 40+trial)
				now := entries[len(entries)-1].Time + model.Time(trial%8)
				got, err := f.RunPool(pool, rng.Derive(7, seed), 1, entries, now)
				if err != nil {
					t.Fatal(err)
				}
				want, wantRS, err := o.run(rng.Derive(7, seed), 1, entries, now)
				if err != nil {
					t.Fatal(err)
				}
				matchOracle(t, what+": RunPool", got, want, got.LastRun, wantRS)

				// The cache-hit path must agree too: advance both states
				// further with a second batch of readings.
				more := randomEntries(src, dep, 20)
				for i := range more {
					more[i].Time += now + 1
				}
				later := now + 25
				f.AdvancePool(pool, rng.Derive(8, seed), got, more, later)
				wantRS = o.advance(rng.Derive(8, seed), want, more, later, true)
				matchOracle(t, what+": AdvancePool", got, want, got.LastRun, wantRS)
			}
		}
	}
}

// TestHealthFlipsMidStreamMatchOracle: the negative update reads a silence
// table built per reader-health set, so a set installed between two
// advances must govern the very next one. On 30 random floorplans × both
// resamplers, one object is run under every reader healthy and then
// advanced through three more batches of readings while the set flips
// nil → A → B → nil between the AdvancePool calls; the oracle follows the
// same schedule, and after every call the particles and RunStats must
// match bit for bit. A and B each flag readers of the batch they govern —
// A all of them, B a random half — so the particles of that batch sit
// where the flip matters: a filter still answering from the previous set's
// table diverges.
func TestHealthFlipsMidStreamMatchOracle(t *testing.T) {
	pool := NewPool()
	for trial := 0; trial < 30; trial++ {
		g, dep := randomSetup(t, trial)
		for _, resample := range []Resampler{Systematic, Multinomial} {
			cfg := DefaultConfig()
			cfg.Resample = resample
			f := MustNew(cfg, g, dep)
			o := &oracle{cfg: cfg, g: g, dep: dep}
			src := rng.New(int64(17000 + 2*trial + int(resample)))
			seed := int64(2*trial + int(resample))
			what := fmt.Sprintf("trial %d, resampler %d", trial, resample)

			entries := randomEntries(src, dep, 30)
			now := entries[len(entries)-1].Time + 2
			got, err := f.RunPool(pool, rng.Derive(12, seed), 1, entries, now)
			if err != nil {
				t.Fatal(err)
			}
			want, wantRS, err := o.run(rng.Derive(12, seed), 1, entries, now)
			if err != nil {
				t.Fatal(err)
			}
			matchOracle(t, what+": RunPool, all healthy", got, want, got.LastRun, wantRS)

			for k, name := range []string{"A", "B", "all healthy"} {
				more := randomEntries(src, dep, 15)
				for i := range more {
					more[i].Time += now + 1
				}
				var un []bool
				if name != "all healthy" {
					un = make([]bool, dep.NumReaders())
					for _, e := range more {
						un[e.Reader] = un[e.Reader] || name == "A" || src.Bool(0.5)
					}
				}
				f.SetUnhealthy(un)
				o.unhealthy = un
				later := now + 18
				f.AdvancePool(pool, rng.Derive(13, seed, int64(k)), got, more, later)
				wantRS := o.advance(rng.Derive(13, seed, int64(k)), want, more, later, true)
				matchOracle(t, fmt.Sprintf("%s: AdvancePool %d, set %s", what, k+1, name), got, want, got.LastRun, wantRS)
				now = later
			}
		}
	}
}

// TestSoAKernelMatchesAoSBitForBit holds the kernel's columns (structure of
// arrays) to the oracle's particles (array of structs) when one pool serves
// several states in turn, as an engine worker's does: two objects advanced
// alternately, then a clone advanced apart from its original, must each
// match the oracle bit for bit under both resamplers. Every resampling swaps
// blocks between the state it serves and the pool, so the next state's
// resampling permutes into blocks another state owned a moment before.
func TestSoAKernelMatchesAoSBitForBit(t *testing.T) {
	pool := NewPool()
	for trial := 0; trial < 50; trial++ {
		g, dep := randomSetup(t, trial)
		for _, resample := range []Resampler{Systematic, Multinomial} {
			cfg := DefaultConfig()
			cfg.Resample = resample
			f := MustNew(cfg, g, dep)
			o := &oracle{cfg: cfg, g: g, dep: dep}
			src := rng.New(int64(15000 + 2*trial + int(resample)))
			seed := int64(2*trial + int(resample))
			what := fmt.Sprintf("trial %d, resampler %d", trial, resample)

			var got [2]*State
			var want [2]*aosState
			now := model.Time(32)
			for i := range got {
				obj := model.ObjectID(i + 1)
				entries := randomEntries(src, dep, 30)
				for j := range entries {
					entries[j].Object = obj
				}
				var err error
				if got[i], err = f.RunPool(pool, rng.Derive(7, seed, int64(obj)), obj, entries, now); err != nil {
					t.Fatal(err)
				}
				if want[i], _, err = o.run(rng.Derive(7, seed, int64(obj)), obj, entries, now); err != nil {
					t.Fatal(err)
				}
				if !statesEqual(got[i], want[i]) {
					t.Fatalf("%s: object %d: RunPool diverged from the oracle", what, obj)
				}
			}
			for round := int64(0); round < 3; round++ {
				later := now + 12
				for i := range got {
					more := randomEntries(src, dep, 10)
					for j := range more {
						more[j].Object, more[j].Time = got[i].Object, more[j].Time+now+1
					}
					f.AdvancePool(pool, rng.Derive(8, seed, round, int64(i)), got[i], more, later)
					o.advance(rng.Derive(8, seed, round, int64(i)), want[i], more, later, true)
					if !statesEqual(got[i], want[i]) {
						t.Fatalf("%s: object %d, round %d: AdvancePool diverged from the oracle", what, i+1, round)
					}
				}
				now = later
			}

			// A clone owns its own columns: advancing it and then its
			// original on the same pool moves each alone.
			gots := []*State{got[0].Clone(), got[0]}
			wants := []*aosState{want[0].Clone(), want[0]}
			for k := range gots {
				f.AdvancePool(pool, rng.Derive(9, seed, int64(k)), gots[k], nil, now+5)
				o.advance(rng.Derive(9, seed, int64(k)), wants[k], nil, now+5, true)
				if !statesEqual(gots[k], wants[k]) {
					t.Fatalf("%s: advance %d after Clone diverged from the oracle", what, k)
				}
			}
		}
	}
}

// span is the address range of one array a state or a pool holds.
type span struct{ lo, hi uintptr }

func spanOf[T any](s []T) span {
	if cap(s) == 0 {
		return span{}
	}
	var zero T
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return span{lo, lo + uintptr(cap(s))*unsafe.Sizeof(zero)}
}

func stateSpans(st *State) []span { return []span{spanOf(st.ints), spanOf(st.floats)} }

func poolSpans(p *Pool) []span {
	return []span{spanOf(p.bints), spanOf(p.bfloats), spanOf(p.covered), spanOf(p.cum), spanOf(p.sched)}
}

// disjoint reports whether no two non-empty spans overlap.
func disjoint(ss []span) bool {
	for i, a := range ss {
		for _, b := range ss[i+1:] {
			if a.lo < a.hi && b.lo < b.hi && a.lo < b.hi && b.lo < a.hi {
				return false
			}
		}
	}
	return true
}

// TestKernelResizeAndOwnership: one pool serves states of different
// particle counts in turn — a 64-particle state, a 16-particle one run under
// SetParticleBudget(16), the first advanced again, and then, the budget
// restored, the second kidnapped back to 64 particles by a detection no
// particle is consistent with and advanced further — and each state must
// match the oracle bit for bit after every call. After every call, too, no
// array may be shared between the pool and a state or between the two
// states: resampling swaps blocks between a state and the pool, it never
// leaves one block with two owners.
func TestKernelResizeAndOwnership(t *testing.T) {
	pool := NewPool()
	kidnapped := 0
	for trial := 0; trial < 30; trial++ {
		g, dep := randomSetup(t, trial)
		for _, resample := range []Resampler{Systematic, Multinomial} {
			cfg := DefaultConfig()
			cfg.Resample = resample
			f := MustNew(cfg, g, dep)
			o := &oracle{cfg: cfg, g: g, dep: dep}
			src := rng.New(int64(18000 + 2*trial + int(resample)))
			seed := int64(2*trial + int(resample))
			var got []*State
			var want []*aosState
			check := func(step string, wantLens ...int) {
				t.Helper()
				what := fmt.Sprintf("trial %d, resampler %d, %s", trial, resample, step)
				owned := poolSpans(pool)
				for i := range got {
					if !statesEqual(got[i], want[i]) {
						t.Fatalf("%s: object %d diverged from the oracle", what, i+1)
					}
					if got[i].Len() != wantLens[i] {
						t.Fatalf("%s: object %d has %d particles, want %d", what, i+1, got[i].Len(), wantLens[i])
					}
					owned = append(owned, stateSpans(got[i])...)
				}
				if !disjoint(owned) {
					t.Fatalf("%s: an array is shared between the pool and a state or between states", what)
				}
			}
			run := func(obj model.ObjectID, now model.Time) {
				entries := randomEntries(src, dep, 30)
				for j := range entries {
					entries[j].Object = obj
				}
				st, err := f.RunPool(pool, rng.Derive(7, seed, int64(obj)), obj, entries, now)
				if err != nil {
					t.Fatal(err)
				}
				ost, _, err := o.run(rng.Derive(7, seed, int64(obj)), obj, entries, now)
				if err != nil {
					t.Fatal(err)
				}
				got, want = append(got, st), append(want, ost)
			}
			advance := func(i int, round int64, more []model.AggregatedReading, now model.Time) {
				f.AdvancePool(pool, rng.Derive(8, seed, round, int64(i)), got[i], more, now)
				o.advance(rng.Derive(8, seed, round, int64(i)), want[i], more, now, true)
			}

			run(1, 32)
			check("64-particle RunPool", 64)
			f.SetParticleBudget(16)
			o.cfg.Ns = 16
			run(2, 32)
			check("16-particle RunPool", 64, 16)
			advance(0, 0, nil, 40)
			check("64-particle advance after a 16-particle run", 64, 16)

			f.SetParticleBudget(0)
			o.cfg.Ns = cfg.Ns
			// A reader whose range no particle of the second state can reach
			// in one second (MaxSpeed, plus a metre): its detection is the
			// kidnapped-robot recovery.
			far := model.NoReader
			for _, r := range dep.Readers() {
				away := true
				for _, p := range got[1].Particles() {
					if r.Pos.Dist(g.Point(p.Loc)) <= r.Range+cfg.MaxSpeed+1 {
						away = false
						break
					}
				}
				if away {
					far = r.ID
					break
				}
			}
			if far == model.NoReader {
				continue
			}
			kidnapped++
			at := got[1].Time + 1
			advance(1, 1, []model.AggregatedReading{{Object: 2, Reader: far, Time: at}}, at)
			check("kidnap reinit at 64", 64, 64)
			more := make([]model.AggregatedReading, 0, 8)
			for k := model.Time(1); k <= 8; k += 2 {
				more = append(more, model.AggregatedReading{Object: 2, Reader: far, Time: at + k})
			}
			advance(1, 2, more, at+10)
			check("64-particle advance after the reinit", 64, 64)
			advance(0, 3, nil, at+10)
			check("first state advanced after the reinit", 64, 64)
		}
	}
	t.Logf("%d of 60 runs kidnapped the 16-particle state back to 64", kidnapped)
	if kidnapped == 0 {
		t.Fatal("vacuous: no trial found a reader to kidnap the 16-particle state with")
	}
}

// TestSoAKernelMatchesAoSInstrumented follows the engine's steady state: one
// object advanced a second at a time on the same pool, each advance resuming
// from the columns the previous one left in the state. With stage timing on,
// each second's particles and RunStats (step, detection and resample counts,
// ESS) must equal the oracle's. The object starts with a zero-step RunPool,
// which steps nothing.
func TestSoAKernelMatchesAoSInstrumented(t *testing.T) {
	pool := NewPool()
	for trial := 0; trial < 8; trial++ {
		g, dep := randomSetup(t, trial)
		f := MustNew(DefaultConfig(), g, dep)
		f.Instrument(Metrics{})
		o := &oracle{cfg: DefaultConfig(), g: g, dep: dep}

		src := rng.New(int64(16000 + trial))
		entries := randomEntries(src, dep, 50)
		first, rest := entries[0], entries[1:]
		got, err := f.RunPool(pool, rng.Derive(9, int64(trial)), 1, entries[:1], first.Time)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := o.run(rng.Derive(9, int64(trial)), 1, entries[:1], first.Time)
		if err != nil {
			t.Fatal(err)
		}
		for now := first.Time + 1; now <= entries[len(entries)-1].Time+3; now++ {
			var second []model.AggregatedReading
			if len(rest) > 0 && rest[0].Time == now {
				second, rest = rest[:1], rest[1:]
			}
			f.AdvancePool(pool, rng.Derive(10, int64(trial), int64(now)), got, second, now)
			wantRS := o.advance(rng.Derive(10, int64(trial), int64(now)), want, second, now, true)
			matchOracle(t, fmt.Sprintf("trial %d, second %d", trial, now), got, want, got.LastRun, wantRS)
		}
	}
}

// TestIndexedInitAtMatchesGeometric checks the initialization distribution
// alone: for every reader of each random deployment, InitAt's particle set
// (sampled from the coverage index's intervals) must equal the oracle's
// (re-intersecting the activation circle with every edge).
func TestIndexedInitAtMatchesGeometric(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		g, dep := randomSetup(t, trial)
		f := MustNew(DefaultConfig(), g, dep)
		o := &oracle{cfg: DefaultConfig(), g: g, dep: dep}
		for _, r := range dep.Readers() {
			got := f.InitAt(rng.Derive(11, int64(trial), int64(r.ID)), 1, r.ID, 0)
			want := &aosState{Object: 1, Particles: o.initParticles(rng.Derive(11, int64(trial), int64(r.ID)), r.ID)}
			if !statesEqual(got, want) {
				t.Fatalf("trial %d reader %d: InitAt diverged", trial, r.ID)
			}
		}
	}
}

// TestNilPoolRunsOnThrowawayPool pins the one dispatch rule left: a nil pool
// runs the same kernel on a throwaway Pool, with output identical to a
// pooled run.
func TestNilPoolRunsOnThrowawayPool(t *testing.T) {
	g, dep := randomSetup(t, 3)
	f := MustNew(DefaultConfig(), g, dep)
	src := rng.New(42)
	entries := randomEntries(src, dep, 30)
	now := entries[len(entries)-1].Time + 2

	pool := NewPool()
	want, err := f.RunPool(pool, rng.Derive(1), 1, entries, now)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.RunPool(nil, rng.Derive(1), 1, entries, now)
	if err != nil {
		t.Fatal(err)
	}
	if !statesEqual(got, view(want)) {
		t.Fatal("nil-pool RunPool diverged from the pooled run")
	}
	f.AdvancePool(pool, rng.Derive(2), want, nil, now+10)
	f.AdvancePool(nil, rng.Derive(2), got, nil, now+10)
	if !statesEqual(got, view(want)) {
		t.Fatal("nil-pool AdvancePool diverged from the pooled advance")
	}
}

// TestNewWithCoverageRejectsMismatchedIndex: the filter answers every
// coverage question from the index, so a missing one, or one built over
// another graph or deployment, is a construction error rather than a
// nil dereference or silently wrong answers.
func TestNewWithCoverageRejectsMismatchedIndex(t *testing.T) {
	g, dep := randomSetup(t, 0)
	otherG, otherDep := randomSetup(t, 1)
	for _, tc := range []struct {
		name string
		cov  *rfid.Coverage
		ok   bool
	}{
		{"matching index", rfid.BuildCoverage(g, dep), true},
		{"nil index", nil, false},
		{"index over another graph", rfid.BuildCoverage(otherG, dep), false},
		{"index over another deployment", rfid.BuildCoverage(g, otherDep), false},
	} {
		_, err := NewWithCoverage(DefaultConfig(), g, dep, tc.cov)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok = %v", tc.name, err, tc.ok)
		}
	}
}
