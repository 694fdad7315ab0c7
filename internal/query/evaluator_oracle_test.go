package query_test

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"repro/internal/anchor"
	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/sim"
	"repro/internal/walkgraph"
)

// mapOracle is the query evaluation the flat table replaced: the two-level
// map APtoObjHT with Algorithms 3 and 4 and the occupancy sum written against
// it, ResultSet.Add/Scale/Clone and per-object anchor sorts included.
type mapOracle struct {
	g        *walkgraph.Graph
	idx      *anchor.Index
	byAnchor map[anchor.ID]model.ResultSet
	byObject map[model.ObjectID]map[anchor.ID]float64
}

func newMapOracle(g *walkgraph.Graph, idx *anchor.Index, dists []anchor.ObjDist) *mapOracle {
	o := &mapOracle{g: g, idx: idx,
		byAnchor: make(map[anchor.ID]model.ResultSet),
		byObject: make(map[model.ObjectID]map[anchor.ID]float64)}
	for _, od := range dists {
		o.byObject[od.Object] = od.Dist.Map()
		for ap, p := range o.byObject[od.Object] {
			if o.byAnchor[ap] == nil {
				o.byAnchor[ap] = make(model.ResultSet)
			}
			o.byAnchor[ap][od.Object] += p
		}
	}
	return o
}

func (o *mapOracle) rangeQuery(q geom.Rect) model.ResultSet {
	resultSet := make(model.ResultSet)
	plan := o.g.Plan()
	for _, h := range plan.Hallways() {
		overlap := h.Strip().Intersect(q)
		if overlap.Empty() {
			continue
		}
		var ratio, lo, hi float64
		if h.Horizontal() {
			ratio = overlap.Height() / h.Width
			lo, hi = overlap.Min.X, overlap.Max.X
		} else {
			ratio = overlap.Width() / h.Width
			lo, hi = overlap.Min.Y, overlap.Max.Y
		}
		result := make(model.ResultSet)
		for _, a := range o.idx.Anchors() {
			if a.Hallway != h.ID {
				continue
			}
			coord := a.Pos.X
			if !h.Horizontal() {
				coord = a.Pos.Y
			}
			if coord >= lo && coord <= hi {
				result.Add(o.byAnchor[a.ID])
			}
		}
		result.Scale(ratio)
		resultSet.Add(result)
	}
	for _, room := range plan.Rooms() {
		covered := room.IntersectArea(q)
		if covered <= 0 {
			continue
		}
		ap := o.idx.RoomAnchor(room.ID)
		if ap == anchor.NoAnchor {
			continue
		}
		result := o.byAnchor[ap].Clone()
		result.Scale(covered / room.Area())
		resultSet.Add(result)
	}
	return resultSet
}

func (o *mapOracle) knn(q geom.Point, k int) model.ResultSet {
	resultSet := make(model.ResultSet)
	ids, _ := o.idx.AnchorsByNetworkDistance(o.g.NearestLocation(q))
	for _, ap := range ids {
		entry := o.byAnchor[ap]
		if len(entry) == 0 {
			continue
		}
		resultSet.Add(entry)
		if resultSet.TotalProb() >= float64(k) {
			break
		}
	}
	return resultSet
}

func (o *mapOracle) occupancy() map[floorplan.RoomID]float64 {
	objs := make([]model.ObjectID, 0, len(o.byObject))
	for obj := range o.byObject {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	byRoom := make(map[floorplan.RoomID]float64)
	for _, obj := range objs {
		dist := o.byObject[obj]
		ids := make([]anchor.ID, 0, len(dist))
		for ap := range dist {
			ids = append(ids, ap)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, ap := range ids {
			byRoom[o.idx.Anchor(ap).Room] += dist[ap]
		}
	}
	return byRoom
}

// TestFlatTableMatchesMapOracle runs the sharded-equivalence scenario at 1,
// 4 and 16 shards and demands that the flat query path — shards returning
// []ObjDist, the router's merge, TableOf, the posting-reading evaluator —
// answers Range, KNN and Occupancy bit for bit like the map table did, both
// on the engine's own pruned candidate sets and on every known object.
func TestFlatTableMatchesMapOracle(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	windows := []geom.Rect{geom.RectWH(20, 4, 24, 12), geom.RectWH(0, 0, 70, 30), geom.RectWH(33, 9, 6, 4)}
	points := []geom.Point{geom.Pt(35, 10), geom.Pt(5, 5), geom.Pt(60, 24)}
	ctx := context.Background()
	for _, n := range []int{1, 4, 16} {
		cfg := engine.DefaultConfig()
		cfg.Seed = 33
		cfg.Shards = n
		e := engine.MustNewSharded(plan, dep, cfg)
		tc := sim.DefaultTraceConfig()
		tc.NumObjects = 120
		tc.DwellMin, tc.DwellMax = 2, 8
		world := sim.MustNew(e.Graph(), rfid.NewSensor(dep), tc, 77)
		for step := 0; step < 90; step++ {
			tm, raws := world.Step()
			if err := e.Ingest(tm, raws); err != nil {
				t.Fatal(err)
			}
		}
		g, idx, now := e.Graph(), e.AnchorIndex(), e.Now()
		infos := e.ObjectInfos()

		for _, w := range windows {
			cands, _ := e.PruneRangeContext(ctx, infos, []geom.Rect{w}, now)
			dists, err := e.Dists(ctx, cands, engine.Query{})
			if err != nil {
				t.Fatal(err)
			}
			want := newMapOracle(g, idx, dists).rangeQuery(w)
			if len(want) == 0 {
				t.Fatalf("shards=%d window %v: vacuous", n, w)
			}
			if got, _ := e.RangeQueryContext(ctx, w); !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d window %v: range answer diverges from the map oracle", n, w)
			}
		}
		for i, q := range points {
			k := 2 + 3*i
			cands, _ := e.PruneKNNContext(ctx, infos, q, k, now)
			dists, err := e.Dists(ctx, cands, engine.Query{})
			if err != nil {
				t.Fatal(err)
			}
			want := newMapOracle(g, idx, dists).knn(q, k)
			if got, _ := e.KNNQueryContext(ctx, q, k); !reflect.DeepEqual(got, want) || len(want) == 0 {
				t.Errorf("shards=%d point %v k=%d: kNN answer diverges from the map oracle", n, q, k)
			}
		}

		all, err := e.Dists(ctx, e.KnownObjects(), engine.Query{})
		if err != nil {
			t.Fatal(err)
		}
		oracle := newMapOracle(g, idx, all)
		flat := anchor.TableOf(all)
		for _, w := range windows {
			if got := e.Evaluator().Range(flat, w); !reflect.DeepEqual(got, oracle.rangeQuery(w)) {
				t.Errorf("shards=%d window %v: Range over all objects diverges", n, w)
			}
		}
		for _, q := range points {
			if got := e.Evaluator().KNN(flat, q, 40); !reflect.DeepEqual(got, oracle.knn(q, 40)) {
				t.Errorf("shards=%d point %v: KNN over all objects diverges", n, q)
			}
		}
		wantOcc := oracle.occupancy()
		occ := e.Occupancy()
		if len(occ) != len(wantOcc) {
			t.Fatalf("shards=%d: %d occupancy rooms, oracle %d", n, len(occ), len(wantOcc))
		}
		for _, ro := range occ {
			if wantOcc[ro.Room] != ro.P {
				t.Errorf("shards=%d room %d: occupancy %x, oracle %x", n, ro.Room, ro.P, wantOcc[ro.Room])
			}
		}
	}
}
