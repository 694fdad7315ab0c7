package anchor

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/walkgraph"
)

// The implementations the flat query path replaced, kept as test oracles:
// the two-level map table and the Edge-struct/sort.Search snap.

// mapTable is the former APtoObjHT: anchor -> object -> probability plus the
// reverse map.
type mapTable struct {
	byAnchor map[ID]model.ResultSet
	byObject map[model.ObjectID]map[ID]float64
}

func newMapTable() *mapTable {
	return &mapTable{
		byAnchor: make(map[ID]model.ResultSet),
		byObject: make(map[model.ObjectID]map[ID]float64),
	}
}

func (t *mapTable) add(ap ID, obj model.ObjectID, p float64) {
	if p <= 0 {
		return
	}
	rs, ok := t.byAnchor[ap]
	if !ok {
		rs = make(model.ResultSet)
		t.byAnchor[ap] = rs
	}
	rs[obj] += p
	dist, ok := t.byObject[obj]
	if !ok {
		dist = make(map[ID]float64)
		t.byObject[obj] = dist
	}
	dist[ap] += p
}

func (t *mapTable) setDistribution(obj model.ObjectID, dist map[ID]float64) {
	t.removeObject(obj)
	for ap, p := range dist {
		t.add(ap, obj, p)
	}
}

func (t *mapTable) removeObject(obj model.ObjectID) {
	for ap := range t.byObject[obj] {
		rs := t.byAnchor[ap]
		delete(rs, obj)
		if len(rs) == 0 {
			delete(t.byAnchor, ap)
		}
	}
	delete(t.byObject, obj)
}

// sameAs reports whether the flat table holds exactly the oracle's content,
// with both sides in their pinned order.
func (t *mapTable) sameAs(tb testing.TB, flat *Table) {
	tb.Helper()
	objs := make([]model.ObjectID, 0, len(t.byObject))
	for o := range t.byObject {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	if got := flat.Objects(); !reflect.DeepEqual(got, objs) && (len(got) != 0 || len(objs) != 0) {
		tb.Fatalf("Objects = %v, oracle %v", got, objs)
	}
	for _, o := range objs {
		if got := flat.DistributionOf(o).Map(); !reflect.DeepEqual(got, t.byObject[o]) {
			tb.Fatalf("DistributionOf(%d) = %v, oracle %v", o, got, t.byObject[o])
		}
		if ids := flat.DistributionOf(o).IDs; !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
			tb.Fatalf("DistributionOf(%d) anchors not sorted: %v", o, ids)
		}
	}
	if flat.Len() != len(t.byAnchor) {
		tb.Fatalf("Len = %d, oracle %d", flat.Len(), len(t.byAnchor))
	}
	for ap, rs := range t.byAnchor {
		ps := flat.Get(ap)
		if len(ps) != len(rs) {
			tb.Fatalf("Get(%d) has %d postings, oracle %d", ap, len(ps), len(rs))
		}
		for i, po := range ps {
			if i > 0 && ps[i-1].Object >= po.Object {
				tb.Fatalf("Get(%d) not in object order: %v", ap, ps)
			}
			if rs[po.Object] != po.P {
				tb.Fatalf("Get(%d)[%d] = %v, oracle %v", ap, po.Object, po.P, rs[po.Object])
			}
		}
	}
}

// TestTableMatchesMapTable drives the flat table and the map oracle through
// the same random Set/Add/Remove sequences, starting either empty or from a
// bulk TableOf build, and demands identical content after every step.
func TestTableMatchesMapTable(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		src := rng.New(seed)
		randDist := func() map[ID]float64 {
			m := make(map[ID]float64)
			for n := src.Intn(6); n > 0; n-- {
				m[ID(src.Intn(12))] = src.Float64() - 0.1 // some non-positive
			}
			return m
		}
		oracle := newMapTable()
		flat := NewTable()
		if seed%2 == 0 {
			var bulk []ObjDist
			for o := 0; o < 30; o += 1 + src.Intn(3) {
				m := randDist()
				oracle.setDistribution(model.ObjectID(o), m)
				bulk = append(bulk, ObjDist{Object: model.ObjectID(o), Dist: DistFromMap(m)})
			}
			flat = TableOf(bulk)
			oracle.sameAs(t, flat)
		}
		for step := 0; step < 120; step++ {
			obj := model.ObjectID(src.Intn(30))
			switch src.Intn(4) {
			case 0:
				oracle.removeObject(obj)
				flat.RemoveObject(obj)
			case 1:
				ap, p := ID(src.Intn(12)), src.Float64()-0.1
				oracle.add(ap, obj, p)
				flat.Add(ap, obj, p)
			default:
				m := randDist()
				oracle.setDistribution(obj, m)
				flat.SetDistribution(obj, m)
			}
			oracle.sameAs(t, flat)
		}
	}
}

// snapOracle is the former Index.Snap.
func snapOracle(idx *Index, nearest []nodeNearest, loc walkgraph.Location) ID {
	g := idx.g
	loc = g.Clamp(loc)
	e := g.Edge(loc.Edge)
	best, bestDist := NoAnchor, math.Inf(1)
	ids := idx.byEdge[loc.Edge]
	if len(ids) > 0 {
		i := sort.Search(len(ids), func(i int) bool {
			return idx.anchors[ids[i]].Loc.Offset >= loc.Offset
		})
		for _, j := range []int{i - 1, i} {
			if j >= 0 && j < len(ids) {
				d := math.Abs(idx.anchors[ids[j]].Loc.Offset - loc.Offset)
				if d < bestDist {
					best, bestDist = ids[j], d
				}
			}
		}
	}
	if nn := nearest[e.A]; nn.anchor != NoAnchor {
		if d := loc.Offset + nn.dist; d < bestDist {
			best, bestDist = nn.anchor, d
		}
	}
	if nn := nearest[e.B]; nn.anchor != NoAnchor {
		if d := (e.Length - loc.Offset) + nn.dist; d < bestDist {
			best, bestDist = nn.anchor, d
		}
	}
	return best
}

// TestSnapMatchesOracle compares the flattened Snap with the oracle on every
// edge of several plans at a dense offset grid plus the places ties live:
// anchor positions, exact midpoints between neighboring anchors, the edge
// ends, and offsets outside the edge.
func TestSnapMatchesOracle(t *testing.T) {
	plans := map[string]*floorplan.Plan{
		"office":   floorplan.DefaultOffice(),
		"twostory": floorplan.TwoStoryOffice(),
	}
	for name, plan := range plans {
		g := walkgraph.MustBuild(plan)
		for _, spacing := range []float64{0.5, 1, 2.5} {
			idx := MustBuildIndex(g, spacing)
			nearest := idx.computeNodeNearest()
			checked := 0
			for _, e := range g.Edges() {
				offs := []float64{-1, -1e-9, 0, e.Length, e.Length + 1e-9, e.Length + 3, math.Inf(1), math.Inf(-1), math.NaN()}
				for i := 0; i <= 400; i++ {
					offs = append(offs, e.Length*float64(i)/400)
				}
				on := idx.OnEdge(e.ID)
				for i, id := range on {
					o := idx.Anchor(id).Loc.Offset
					offs = append(offs, o, math.Nextafter(o, 0), math.Nextafter(o, e.Length+1))
					if i > 0 {
						mid := (idx.Anchor(on[i-1]).Loc.Offset + o) / 2
						offs = append(offs, mid, math.Nextafter(mid, 0), math.Nextafter(mid, e.Length))
					}
				}
				for _, off := range offs {
					loc := walkgraph.Location{Edge: e.ID, Offset: off}
					if got, want := idx.Snap(loc), snapOracle(idx, nearest, loc); got != want {
						t.Fatalf("%s spacing %v: Snap(%v) = %d, oracle %d", name, spacing, loc, got, want)
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatalf("%s: nothing checked", name)
			}
		}
	}
}

// TestAccumulatorMatchesMap pins the dense accumulator to the map it
// replaced: same per-anchor sums (added in call order), sorted support, and a
// clean state for the next object.
func TestAccumulatorMatchesMap(t *testing.T) {
	src := rng.New(7)
	var acc Accumulator
	for round := 0; round < 50; round++ {
		want := map[ID]float64{}
		for n := 1 + src.Intn(64); n > 0; n-- {
			ap, w := ID(src.Intn(40)), src.Float64()/3
			want[ap] += w
			acc.Add(ap, w)
		}
		got := acc.Dist()
		if !reflect.DeepEqual(got.Map(), want) {
			t.Fatalf("round %d: Dist = %v, want %v", round, got.Map(), want)
		}
		if !sort.SliceIsSorted(got.IDs, func(i, j int) bool { return got.IDs[i] < got.IDs[j] }) {
			t.Fatalf("round %d: support not sorted: %v", round, got.IDs)
		}
		if leftover := acc.Dist(); leftover.Len() != 0 {
			t.Fatalf("round %d: accumulator not reset: %v", round, leftover)
		}
	}
}
