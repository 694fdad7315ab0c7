package particle

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/walkgraph"
)

// longCorridor builds an 80 m hallway with readers every 10 m, for
// exercising the silence/negative-information machinery over long runs.
func longCorridor(t *testing.T) (*walkgraph.Graph, *rfid.Deployment) {
	t.Helper()
	b := floorplan.NewBuilder()
	h := b.AddHallway("h", geom.Seg(geom.Pt(0, 10), geom.Pt(80, 10)), 2)
	b.AddRoom("R0", geom.RectWH(22, 3, 6, 6), h)
	b.AddRoom("R1", geom.RectWH(52, 3, 6, 6), h)
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := walkgraph.MustBuild(plan)
	var readers []rfid.Reader
	for x := 10.0; x <= 70; x += 10 {
		readers = append(readers, rfid.Reader{Pos: geom.Pt(x, 10), Range: 2})
	}
	return g, rfid.NewDeployment(readers)
}

// TestRecoveryOnInconsistentObservation drives the filter into a state where
// no particle matches a reading and verifies the kidnapped-robot recovery
// reinitializes the cloud inside the detecting reader's range.
func TestRecoveryOnInconsistentObservation(t *testing.T) {
	g, dep := longCorridor(t)
	f := MustNew(DefaultConfig(), g, dep)
	src := rng.New(3)
	// Readings jump from reader 0 (x=10) to reader 6 (x=70) in one second —
	// physically impossible, so every particle is inconsistent.
	entries := []model.AggregatedReading{
		{Object: 1, Reader: 0, Time: 0},
		{Object: 1, Reader: 6, Time: 1},
	}
	st, err := f.RunPool(NewPool(), src, 1, entries, 1)
	if err != nil {
		t.Fatal(err)
	}
	reader := dep.Reader(6)
	for _, p := range st.Particles {
		if !reader.Covers(g.Point(p.Loc)) {
			t.Fatalf("particle at %v outside the recovering reader's range", g.Point(p.Loc))
		}
	}
}

// TestNegativeUpdatePushesMassOutOfRanges verifies that prolonged silence
// drains probability mass from covered zones.
func TestNegativeUpdatePushesMassOutOfRanges(t *testing.T) {
	g, dep := longCorridor(t)
	cfg := DefaultConfig()
	f := MustNew(cfg, g, dep)
	src := rng.New(4)
	entries := []model.AggregatedReading{
		{Object: 1, Reader: 3, Time: 0}, // at x=40
	}
	// After 12 silent seconds, particles that wandered into the adjacent
	// readers' ranges (x=30, x=50) should have been demoted.
	st, err := f.RunPool(NewPool(), src, 1, entries, 12)
	if err != nil {
		t.Fatal(err)
	}
	inRange := 0.0
	total := 0.0
	for _, p := range st.Particles {
		total += p.Weight
		pos := g.Point(p.Loc)
		if _, covered := dep.CoveringReader(pos); covered && g.RoomAt(p.Loc) == floorplan.NoRoom {
			inRange += p.Weight
		}
	}
	if inRange/total > 0.35 {
		t.Errorf("mass still inside silent ranges = %v", inRange/total)
	}
}

// TestNegativeInfoOffMatchesPaperAlgorithm verifies the ablation switch: with
// UseNegativeInfo off, silent seconds change nothing but particle motion
// (weights stay untouched).
func TestNegativeInfoOffMatchesPaperAlgorithm(t *testing.T) {
	g, dep := longCorridor(t)
	cfg := DefaultConfig()
	cfg.UseNegativeInfo = false
	f := MustNew(cfg, g, dep)
	src := rng.New(5)
	entries := []model.AggregatedReading{{Object: 1, Reader: 3, Time: 0}}
	st, err := f.RunPool(NewPool(), src, 1, entries, 10)
	if err != nil {
		t.Fatal(err)
	}
	// All weights remain the uniform initial value.
	want := 1.0 / float64(cfg.Ns)
	for _, p := range st.Particles {
		if math.Abs(p.Weight-want) > 1e-12 {
			t.Fatalf("weight %v changed despite disabled negative info", p.Weight)
		}
	}
}

// TestRougheningPreservesSpeedBounds verifies resampled speeds stay within
// the configured bounds under heavy jitter.
func TestRougheningPreservesSpeedBounds(t *testing.T) {
	g, dep := longCorridor(t)
	cfg := DefaultConfig()
	cfg.SpeedJitter = 0.5
	f := MustNew(cfg, g, dep)
	src := rng.New(6)
	entries := []model.AggregatedReading{
		{Object: 1, Reader: 2, Time: 0},
		{Object: 1, Reader: 3, Time: 10},
		{Object: 1, Reader: 4, Time: 20},
	}
	st, err := f.RunPool(NewPool(), src, 1, entries, 25)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range st.Particles {
		if p.Speed < cfg.MinSpeed || p.Speed > cfg.MaxSpeed {
			t.Fatalf("speed %v escaped [%v, %v]", p.Speed, cfg.MinSpeed, cfg.MaxSpeed)
		}
	}
}

// TestZeroJitterKeepsCloneSpeeds verifies disabling roughening leaves
// resampled speeds exactly equal to their parents'.
func TestZeroJitterKeepsCloneSpeeds(t *testing.T) {
	g, dep := longCorridor(t)
	cfg := DefaultConfig()
	cfg.SpeedJitter = 0
	cfg.UseNegativeInfo = false
	f := MustNew(cfg, g, dep)
	src := rng.New(7)
	st := f.InitAt(src, 1, 3, 0)
	speeds := make(map[float64]bool)
	for _, p := range st.Particles {
		speeds[p.Speed] = true
	}
	// One detected second: predict, reweight, resample, and roughening (a
	// no-op at zero jitter). All surviving speeds must come from the initial
	// set.
	f.AdvancePool(NewPool(), src, st, []model.AggregatedReading{{Object: 1, Reader: 3, Time: 1}}, 1)
	for _, p := range st.Particles {
		if !speeds[p.Speed] {
			t.Fatalf("speed %v not inherited from a parent", p.Speed)
		}
	}
}

// TestAdvanceIsIncrementallyConsistent checks that running the filter in one
// shot and in two Advance stages over the same derived stream covers the
// same reading times (weaker than bit-equality, which the different rng
// consumption patterns do not guarantee).
func TestAdvanceIsIncrementallyConsistent(t *testing.T) {
	g, dep := longCorridor(t)
	f := MustNew(DefaultConfig(), g, dep)
	entries := []model.AggregatedReading{
		{Object: 1, Reader: 2, Time: 0},
		{Object: 1, Reader: 3, Time: 12},
	}
	st, err := f.RunPool(NewPool(), rng.New(8), 1, entries[:1], 5)
	if err != nil {
		t.Fatal(err)
	}
	f.AdvancePool(NewPool(), rng.New(9), st, entries, 14)
	if st.Time != 14 || st.LastReadingTime != 12 {
		t.Fatalf("staged state: time=%d lastReading=%d", st.Time, st.LastReadingTime)
	}
	reader := dep.Reader(3)
	near := 0
	for _, p := range st.Particles {
		if g.Point(p.Loc).Dist(reader.Pos) < reader.Range+3 {
			near++
		}
	}
	if near < len(st.Particles)/2 {
		t.Errorf("staged advance did not track the new reading: %d/%d near", near, len(st.Particles))
	}
}
