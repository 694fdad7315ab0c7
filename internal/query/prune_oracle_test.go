package query

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/anchor"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/walkgraph"
)

// knnCandidatesOracle is the former Pruner.knnCandidatesCtx: per object, a
// scan over every anchor with a DistToLocation per contained one, then a
// full sort of the upper bounds. The flat prune must return its candidate
// slice exactly.
func knnCandidatesOracle(p *Pruner, ctx context.Context, infos []ObjectInfo, q geom.Point, k int, now model.Time) ([]model.ObjectID, error) {
	if len(infos) == 0 {
		return nil, nil
	}
	loc := p.g.NearestLocation(q)
	nodeDist := p.g.DistancesFromLocation(loc)

	type bounds struct {
		obj    model.ObjectID
		si, li float64
	}
	bs := make([]bounds, 0, len(infos))
	ls := make([]float64, 0, len(infos))
	for _, info := range infos {
		if err := expired(ctx, "prune/knn"); err != nil {
			out := make([]model.ObjectID, len(infos))
			for i := range infos {
				out[i] = infos[i].Object
			}
			return out, err
		}
		ur := p.UncertainRegion(info, now)
		si, li := math.Inf(1), 0.0
		for _, a := range p.idx.Anchors() {
			if !ur.Contains(a.Pos) {
				continue
			}
			d := p.g.DistToLocation(loc, nodeDist, a.Loc)
			if d < si {
				si = d
			}
			if d > li {
				li = d
			}
		}
		if math.IsInf(si, 1) {
			reader := p.dep.Reader(info.Reader)
			center := p.g.NearestLocation(reader.Pos)
			d := p.g.DistToLocation(loc, nodeDist, center)
			si = math.Max(0, d-ur.R)
			li = d + ur.R
		}
		bs = append(bs, bounds{obj: info.Object, si: si, li: li})
		ls = append(ls, li)
	}
	sort.Float64s(ls)
	idx := k - 1
	if idx >= len(ls) {
		idx = len(ls) - 1
	}
	f := ls[idx]
	var out []model.ObjectID
	for _, b := range bs {
		if b.si <= f {
			out = append(out, b.obj)
		}
	}
	return out, nil
}

// randomPruneCase builds a random office with a uniform deployment whose
// activation range is sometimes far below the anchor spacing, so fresh
// sightings produce regions too small to contain an anchor.
func randomPruneCase(src *rng.Source) (*Pruner, *floorplan.Plan, *rfid.Deployment) {
	plan := floorplan.RandomOffice(src, 1+src.Intn(4))
	g := walkgraph.MustBuild(plan)
	idx := anchor.MustBuildIndex(g, []float64{0.5, 1, 2, 4}[src.Intn(4)])
	reach := []float64{0.05, 0.3, 1, 2, 3}[src.Intn(5)]
	dep := rfid.MustDeployUniform(plan, 3+src.Intn(20), reach)
	return NewPruner(g, idx, dep, 0.5+2*src.Float64()), plan, dep
}

func randomInfos(src *rng.Source, dep *rfid.Deployment, n int, now model.Time) []ObjectInfo {
	infos := make([]ObjectInfo, n)
	for i := range infos {
		age := model.Time(0)
		switch src.Intn(4) {
		case 0: // just seen: the smallest regions
		case 1:
			age = model.Time(src.Intn(5))
		default:
			age = model.Time(src.Intn(int(now)))
		}
		infos[i] = ObjectInfo{
			Object:   model.ObjectID(3*i + src.Intn(3)),
			Reader:   model.ReaderID(src.Intn(dep.NumReaders())),
			LastSeen: now - age,
		}
	}
	return infos
}

// TestKNNCandidatesMatchOracle is the equivalence property: over random
// floor plans, deployments, object summaries, query points and k (including
// k beyond the object count), with and without unhealthy-reader widening,
// the flat prune returns the identical candidate slice; and an expired
// context admits every object with a *DeadlineError, as before.
func TestKNNCandidatesMatchOracle(t *testing.T) {
	const now = model.Time(200)
	expiredCtx, cancel := context.WithCancel(context.Background())
	cancel()
	small := 0
	for seed := int64(1); seed <= 60; seed++ {
		src := rng.New(seed)
		p, plan, dep := randomPruneCase(src)
		if seed%3 == 0 {
			un := make([]bool, dep.NumReaders())
			for i := range un {
				un[i] = src.Intn(3) == 0
			}
			p.SetUnhealthy(un)
		}
		b := plan.Bounds()
		for round := 0; round < 6; round++ {
			n := 1 + src.Intn(120)
			infos := randomInfos(src, dep, n, now)
			for _, info := range infos {
				ur := p.UncertainRegion(info, now)
				if countWithin(p.readers[info.Reader].dist, ur.R+geom.Eps) == 0 {
					small++
				}
			}
			q := geom.Pt(src.Uniform(b.Min.X-2, b.Max.X+2), src.Uniform(b.Min.Y-2, b.Max.Y+2))
			for _, k := range []int{1, 3, 1 + src.Intn(n), n, n + 5} {
				want, _ := knnCandidatesOracle(p, nil, infos, q, k, now)
				got, err := p.KNNCandidatesContext(context.Background(), infos, q, k, now)
				if err != nil {
					t.Fatalf("seed %d: unexpected error %v", seed, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d round %d k=%d n=%d: candidates differ\n got  %v\n want %v", seed, round, k, n, got, want)
				}
			}
			got, err := p.KNNCandidatesContext(expiredCtx, infos, q, 3, now)
			var de *DeadlineError
			if !errors.As(err, &de) || de.Stage != "prune/knn" {
				t.Fatalf("seed %d: expired ctx error = %v, want *DeadlineError at prune/knn", seed, err)
			}
			want, _ := knnCandidatesOracle(p, expiredCtx, infos, q, 3, now)
			if !reflect.DeepEqual(got, want) || len(got) != len(infos) {
				t.Fatalf("seed %d: expired ctx admitted %d of %d objects", seed, len(got), len(infos))
			}
		}
	}
	if small == 0 {
		t.Error("no case exercised a region too small to contain an anchor")
	}
}

func TestKthSmallest(t *testing.T) {
	src := rng.New(3)
	for round := 0; round < 200; round++ {
		vs := make([]float64, 1+src.Intn(40))
		for i := range vs {
			vs[i] = float64(src.Intn(12)) // plenty of ties
			if src.Intn(15) == 0 {
				vs[i] = math.Inf(1)
			}
		}
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		for _, k := range []int{1, 2, len(vs) / 2, len(vs), len(vs) + 3} {
			want := sorted[len(sorted)-1]
			if k >= 1 && k <= len(sorted) {
				want = sorted[k-1]
			}
			if got := kthSmallest(vs, k); got != want {
				t.Fatalf("kthSmallest(%v, %d) = %v, want %v", vs, k, got, want)
			}
		}
	}
}

// pruneBench1k is the layer benchmarks' fixture: the default office at the
// paper's deployment with 1000 objects last seen up to a minute ago.
func pruneBench1k(b *testing.B) (*Pruner, []ObjectInfo, *floorplan.Plan) {
	b.Helper()
	plan := floorplan.DefaultOffice()
	g := walkgraph.MustBuild(plan)
	idx := anchor.MustBuildIndex(g, anchor.DefaultSpacing)
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	src := rng.New(11)
	infos := make([]ObjectInfo, 1000)
	for i := range infos {
		infos[i] = ObjectInfo{
			Object:   model.ObjectID(i),
			Reader:   model.ReaderID(src.Intn(dep.NumReaders())),
			LastSeen: model.Time(100 - src.Intn(60)),
		}
	}
	return NewPruner(g, idx, dep, 1.5), infos, plan
}

var benchSink []model.ObjectID

func BenchmarkPruneKNN1k(b *testing.B) {
	p, infos, plan := pruneBench1k(b)
	src := rng.New(12)
	bd := plan.Bounds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Pt(src.Uniform(bd.Min.X, bd.Max.X), src.Uniform(bd.Min.Y, bd.Max.Y))
		benchSink = p.KNNCandidates(infos, q, 3, 100)
	}
}

func BenchmarkPruneRange1k(b *testing.B) {
	p, infos, plan := pruneBench1k(b)
	src := rng.New(12)
	bd := plan.Bounds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := geom.RectWH(src.Uniform(bd.Min.X, bd.Max.X-6), src.Uniform(bd.Min.Y, bd.Max.Y-4), 6, 4)
		benchSink = p.RangeCandidates(infos, []geom.Rect{w}, 100)
	}
}
