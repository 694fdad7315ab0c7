package particle

import (
	"fmt"
	"testing"

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

// statesEqual compares the observable filter output bit-for-bit.
func statesEqual(a, b *State) bool {
	if a.Object != b.Object || a.Time != b.Time || a.LastReadingTime != b.LastReadingTime ||
		len(a.Particles) != len(b.Particles) {
		return false
	}
	for i := range a.Particles {
		if a.Particles[i] != b.Particles[i] {
			return false
		}
	}
	return true
}

// matchOracle fails unless the kernel's state and run statistics equal the
// oracle's: particles to the last bit, and every RunStats field but the
// stage durations.
func matchOracle(t *testing.T, what string, got, want *State, gotRS, wantRS RunStats) {
	t.Helper()
	if !statesEqual(got, want) {
		t.Fatalf("%s: kernel and geometric oracle diverged\nkernel: %+v\noracle: %+v", what, got, want)
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
				if sick {
					un := make([]bool, dep.NumReaders())
					un[src.Intn(len(un))] = true
					for i := range un {
						un[i] = un[i] || src.Bool(0.2)
					}
					f.SetUnhealthy(un)
				}
				o := &oracle{cfg: cfg, g: g, dep: dep, unhealthy: f.Unhealthy()}
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

// TestSoAKernelMatchesAoSBitForBit holds the kernel's load/store boundary —
// State.Particles (array of structs) into and out of the Pool's flat arrays
// (structure of arrays) — to the oracle when one pool serves several states
// in turn, as an engine worker's does: two objects advanced alternately, then
// a clone advanced apart from its original, must each match the oracle bit
// for bit under both resamplers. Every switch of state leaves the pool's
// residency stamp stale, so each advance reloads from the particles the
// previous store wrote back.
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

			var got, want [2]*State
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

			// A clone carries no stamp: advancing it and then its original
			// on the same pool reloads both.
			gotClone, wantClone := got[0].Clone(), want[0].Clone()
			for k, pair := range [][2]*State{{gotClone, wantClone}, {got[0], want[0]}} {
				f.AdvancePool(pool, rng.Derive(9, seed, int64(k)), pair[0], nil, now+5)
				o.advance(rng.Derive(9, seed, int64(k)), pair[1], nil, now+5, true)
				if !statesEqual(pair[0], pair[1]) {
					t.Fatalf("%s: advance %d after Clone diverged from the oracle", what, k)
				}
			}
		}
	}
}

// TestSoAKernelMatchesAoSInstrumented follows the engine's steady state: one
// object advanced a second at a time on the same pool, so every load after
// the first is elided and the kernel resumes from the arrays its last store
// left behind. With stage timing on, each second's particles and RunStats
// (step, detection and resample counts, ESS) must equal the oracle's. The
// object starts with a zero-step RunPool, which is a no-op: the first
// advance loads from the particles, every later one from the pool.
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
			// The RunPool above stepped nothing, so it stored nothing and
			// left no stamp; every advance after it does.
			if now > first.Time+1 && (got.soaPool != pool || pool.owner != got) {
				t.Fatalf("trial %d, second %d: residency stamp lost between consecutive advances", trial, now)
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
			want := &State{Object: 1, Particles: o.initParticles(rng.Derive(11, int64(trial), int64(r.ID)), r.ID)}
			if !statesEqual(got, want) {
				t.Fatalf("trial %d reader %d: InitAt diverged", trial, r.ID)
			}
		}
	}
}

// TestNilPoolRunsOnThrowawayPool pins the one dispatch rule left: a nil pool
// runs the same kernel on a throwaway Pool — output identical to a pooled
// run — and the state keeps no reference to that pool.
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
	if !statesEqual(got, want) {
		t.Fatal("nil-pool RunPool diverged from the pooled run")
	}
	f.AdvancePool(pool, rng.Derive(2), want, nil, now+10)
	f.AdvancePool(nil, rng.Derive(2), got, nil, now+10)
	if !statesEqual(got, want) {
		t.Fatal("nil-pool AdvancePool diverged from the pooled advance")
	}
	if got.soaPool != nil {
		t.Fatal("state keeps the throwaway pool alive")
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
