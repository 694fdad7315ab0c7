package anchor_test

import (
	"testing"

	"repro/internal/anchor"
	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/particle"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/walkgraph"
)

// benchStates returns n filtered particle sets on the default office, each a
// few seconds past a detection: the clouds the engine snaps on a warm query.
func benchStates(b *testing.B, n int) (*anchor.Index, []*particle.State) {
	b.Helper()
	plan := floorplan.DefaultOffice()
	g := walkgraph.MustBuild(plan)
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	f := particle.MustNew(particle.DefaultConfig(), g, dep)
	pool := particle.NewPool()
	states := make([]*particle.State, n)
	for i := range states {
		src := rng.Derive(17, int64(i))
		reader := model.ReaderID(i % dep.NumReaders())
		st, err := f.RunPool(pool, src, model.ObjectID(i), []model.AggregatedReading{
			{Object: model.ObjectID(i), Reader: reader, Time: 0},
			{Object: model.ObjectID(i), Reader: reader, Time: 1},
		}, model.Time(2+i%6))
		if err != nil {
			b.Fatal(err)
		}
		states[i] = st
	}
	return anchor.MustBuildIndex(g, anchor.DefaultSpacing), states
}

var benchLen int

// BenchmarkSnapDistribution is the fourth filter stage for one object: snap
// 64 particles to their anchors and return the distribution. A state
// memoizes its snap until its particles move, so every iteration snaps a
// fresh, memo-less state over the same particles: the benchmark times the
// snap, never a memo hit.
func BenchmarkSnapDistribution(b *testing.B) {
	idx, states := benchStates(b, 64)
	var acc anchor.Accumulator
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := *states[i%len(states)] // shares the columns, carries no memo
		benchLen += st.AnchorDist(idx, &acc).Len()
	}
}

// BenchmarkTableBuild300 builds a query's APtoObjHT from 300 objects'
// distributions, snapped once before the timer starts: it times the table
// build alone.
func BenchmarkTableBuild300(b *testing.B) {
	idx, states := benchStates(b, 300)
	var acc anchor.Accumulator
	dists := make([]anchor.ObjDist, len(states))
	for i, st := range states {
		dists[i] = anchor.ObjDist{Object: st.Object, Dist: st.AnchorDist(idx, &acc)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchLen += anchor.TableOf(dists).Len()
	}
}
