package engine

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/particle"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/sim"
)

// maxParticleBytes bounds what the cached particle states retain per
// particle: the 32 bytes of a state's columns, plus its resting bitset's bit
// and word rounding. One 48-byte Particle struct per particle, the layout
// before columns, would be 48.
const maxParticleBytes = 33

// TestParticleFootprint runs the benchmark's query_hot shape in process —
// DefaultOffice, 1,000 objects, seed 3: 60 warm-up stream seconds and a range
// and a kNN query, then 300 cycles of one stream second and three 6×4 m range
// and k=3 kNN queries at the generator's positions — and holds the bytes the
// cached particle states retain (every slice a state holds, capacity times
// element size) per cached particle under maxParticleBytes. The figure is
// deterministic: same seed, same states.
func TestParticleFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 360 s of 1,000 objects and asks 1,800 queries")
	}
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := DefaultConfig()
	cfg.Seed = 3
	sys := MustNew(plan, dep, cfg)
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 1000
	world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, 3)
	qsrc := rng.Derive(3, 0x9e3779b9)
	b := plan.Bounds()
	round3 := func(v float64) float64 { return math.Round(v*1000) / 1000 }
	ctx := context.Background()
	ingest := func() {
		tm, raws := world.Step()
		if err := sys.Ingest(tm, raws); err != nil {
			t.Fatal(err)
		}
	}
	query := func() {
		x := round3(qsrc.Uniform(b.Min.X, math.Max(b.Min.X, b.Max.X-6)))
		y := round3(qsrc.Uniform(b.Min.Y, math.Max(b.Min.Y, b.Max.Y-4)))
		if _, err := sys.Query(ctx, RangeQuery(geom.RectWH(x, y, 6, 4))); err != nil {
			t.Fatal(err)
		}
		pt, _ := plan.PointOnHallway(qsrc.Uniform(0, plan.TotalHallwayLength()))
		if _, err := sys.Query(ctx, KNNQuery(geom.Pt(round3(pt.X), round3(pt.Y)), 3)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		ingest()
	}
	query()
	for cycle := 0; cycle < 300; cycle++ {
		ingest()
		for j := 0; j < 3; j++ {
			query()
		}
	}

	states := sys.shards[0].cache.States()
	particles, retained := 0, 0
	for _, st := range states {
		particles += st.Len()
		retained += retainedBytes(st)
	}
	if particles == 0 {
		t.Fatal("vacuous: nothing cached")
	}
	perParticle := float64(retained) / float64(particles)
	t.Logf("%d cached states, %d particles: %d B retained, %.3f B per particle (%d B at 48 B each)",
		len(states), particles, retained, perParticle, 48*particles)
	if perParticle > maxParticleBytes {
		t.Errorf("cached states retain %.3f B per particle, bound %d", perParticle, maxParticleBytes)
	}
}

// retainedBytes sums capacity times element size over every slice field of
// the state: the arrays it keeps alive, whatever its layout calls them.
func retainedBytes(st *particle.State) int {
	v := reflect.ValueOf(st).Elem()
	n := 0
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			n += f.Cap() * int(f.Type().Elem().Size())
		}
	}
	return n
}
