package query

import (
	"context"
	"math"
	"testing"

	"repro/internal/anchor"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/walkgraph"
)

// corridor: 40 m hallway (strip y in [9,11]) with a south room R0
// (x 12..18, y 3..9) and a north room R1 (x 24..30, y 11..17), plus three
// readers at x = 10, 20, 30 with 2 m activation ranges.
func corridor(t *testing.T) (*walkgraph.Graph, *anchor.Index, *rfid.Deployment) {
	t.Helper()
	b := floorplan.NewBuilder()
	h := b.AddHallway("h", geom.Seg(geom.Pt(0, 10), geom.Pt(40, 10)), 2)
	b.AddRoom("R0", geom.RectWH(12, 3, 6, 6), h)
	b.AddRoom("R1", geom.RectWH(24, 11, 6, 6), h)
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := walkgraph.MustBuild(plan)
	dep := rfid.NewDeployment([]rfid.Reader{
		{Pos: geom.Pt(10, 10), Range: 2},
		{Pos: geom.Pt(20, 10), Range: 2},
		{Pos: geom.Pt(30, 10), Range: 2},
	})
	return g, anchor.MustBuildIndex(g, 1.0), dep
}

// hallwayAnchorNear returns the hallway anchor closest to x on the corridor.
func hallwayAnchorNear(t *testing.T, idx *anchor.Index, x float64) anchor.ID {
	t.Helper()
	best, bestDist := anchor.NoAnchor, math.Inf(1)
	for _, a := range idx.Anchors() {
		if a.Room != floorplan.NoRoom {
			continue
		}
		if d := math.Abs(a.Pos.X - x); d < bestDist {
			best, bestDist = a.ID, d
		}
	}
	return best
}

func TestRangeHallwayWidthRatio(t *testing.T) {
	g, idx, _ := corridor(t)
	e := NewEvaluator(g, idx)
	tab := anchor.NewTable()
	ap := hallwayAnchorNear(t, idx, 5.5)
	tab.Add(ap, 1, 1.0)
	// Query covers x in [4, 7] and the top half of the hallway width.
	q := geom.RectFromCorners(geom.Pt(4, 10), geom.Pt(7, 11))
	rs := e.Range(tab, q)
	if math.Abs(rs[1]-0.5) > 1e-9 {
		t.Errorf("P(o1 in q) = %v, want 0.5 (width ratio)", rs[1])
	}
	// Full width -> full probability.
	q = geom.RectFromCorners(geom.Pt(4, 9), geom.Pt(7, 11))
	rs = e.Range(tab, q)
	if math.Abs(rs[1]-1.0) > 1e-9 {
		t.Errorf("full-width P = %v, want 1.0", rs[1])
	}
	// Query outside the anchor's x interval -> no result.
	q = geom.RectFromCorners(geom.Pt(8, 9), geom.Pt(9, 11))
	if rs = e.Range(tab, q); len(rs) != 0 {
		t.Errorf("out-of-range query returned %v", rs)
	}
}

func TestRangeRoomAreaRatio(t *testing.T) {
	g, idx, _ := corridor(t)
	e := NewEvaluator(g, idx)
	tab := anchor.NewTable()
	tab.Add(idx.RoomAnchor(0), 2, 0.8)
	// Query covers the quarter of room R0: x in [12, 15], y in [3, 6].
	q := geom.RectFromCorners(geom.Pt(12, 3), geom.Pt(15, 6))
	rs := e.Range(tab, q)
	if math.Abs(rs[2]-0.8*0.25) > 1e-9 {
		t.Errorf("P(o2 in q) = %v, want 0.2 (area ratio)", rs[2])
	}
	// Whole room -> full stored probability.
	q = geom.RectFromCorners(geom.Pt(12, 3), geom.Pt(18, 9))
	rs = e.Range(tab, q)
	if math.Abs(rs[2]-0.8) > 1e-9 {
		t.Errorf("whole-room P = %v, want 0.8", rs[2])
	}
}

func TestRangeCombinesHallwayAndRoom(t *testing.T) {
	g, idx, _ := corridor(t)
	e := NewEvaluator(g, idx)
	tab := anchor.NewTable()
	// Object 1 split between a hallway anchor near x=13 and room R0.
	tab.Add(hallwayAnchorNear(t, idx, 13.5), 1, 0.5)
	tab.Add(idx.RoomAnchor(0), 1, 0.5)
	// Query spanning the hallway (full width) and the top half of R0 around
	// x in [12, 18].
	q := geom.RectFromCorners(geom.Pt(12, 6), geom.Pt(18, 11))
	rs := e.Range(tab, q)
	// Hallway part: full width ratio -> 0.5. Room part: covered area is
	// 6 x 3 of 6 x 6 -> 0.5 * 0.5 = 0.25. Total 0.75.
	if math.Abs(rs[1]-0.75) > 1e-9 {
		t.Errorf("combined P = %v, want 0.75", rs[1])
	}
}

func TestRangeEmptyTable(t *testing.T) {
	g, idx, _ := corridor(t)
	e := NewEvaluator(g, idx)
	rs := e.Range(anchor.NewTable(), geom.RectFromCorners(geom.Pt(0, 0), geom.Pt(40, 20)))
	if len(rs) != 0 {
		t.Errorf("empty table gave %v", rs)
	}
}

func TestKNNStopsAtProbabilityK(t *testing.T) {
	g, idx, _ := corridor(t)
	e := NewEvaluator(g, idx)
	tab := anchor.NewTable()
	// Three unit-mass objects at x ~ 5, 20, 35.
	tab.Add(hallwayAnchorNear(t, idx, 5), 1, 1.0)
	tab.Add(hallwayAnchorNear(t, idx, 20), 2, 1.0)
	tab.Add(hallwayAnchorNear(t, idx, 35), 3, 1.0)
	rs := e.KNN(tab, geom.Pt(6, 10), 2)
	if len(rs) != 2 {
		t.Fatalf("result = %v, want 2 objects", rs)
	}
	if _, ok := rs[1]; !ok {
		t.Error("nearest object missing")
	}
	if _, ok := rs[2]; !ok {
		t.Error("second-nearest object missing")
	}
	if rs.TotalProb() < 2 {
		t.Errorf("total probability %v < k", rs.TotalProb())
	}
}

func TestKNNWithSpreadDistributions(t *testing.T) {
	g, idx, _ := corridor(t)
	e := NewEvaluator(g, idx)
	tab := anchor.NewTable()
	// Object 1 spread near the query; objects 2 and 3 farther away.
	tab.Add(hallwayAnchorNear(t, idx, 9), 1, 0.5)
	tab.Add(hallwayAnchorNear(t, idx, 11), 1, 0.5)
	tab.Add(hallwayAnchorNear(t, idx, 20), 2, 1.0)
	tab.Add(hallwayAnchorNear(t, idx, 30), 3, 1.0)
	rs := e.KNN(tab, geom.Pt(10, 10), 2)
	// Expansion: picks up o1's two halves, then o2's mass reaches 2.0.
	if rs.TotalProb() < 2 {
		t.Errorf("total = %v", rs.TotalProb())
	}
	if math.Abs(rs[1]-1.0) > 1e-9 {
		t.Errorf("o1 mass = %v", rs[1])
	}
	if _, ok := rs[3]; ok {
		t.Error("farthest object included unnecessarily")
	}
}

func TestKNNZeroKAndEmptyTable(t *testing.T) {
	g, idx, _ := corridor(t)
	e := NewEvaluator(g, idx)
	if rs := e.KNN(anchor.NewTable(), geom.Pt(10, 10), 0); len(rs) != 0 {
		t.Errorf("k=0 gave %v", rs)
	}
	// Insufficient mass: returns whatever exists without looping forever.
	tab := anchor.NewTable()
	tab.Add(hallwayAnchorNear(t, idx, 5), 1, 0.5)
	rs := e.KNN(tab, geom.Pt(10, 10), 3)
	if math.Abs(rs.TotalProb()-0.5) > 1e-9 {
		t.Errorf("partial-mass total = %v", rs.TotalProb())
	}
}

func TestTopKObjects(t *testing.T) {
	rs := model.ResultSet{1: 0.2, 2: 0.9, 3: 0.5}
	top := TopKObjects(rs, 2)
	if len(top) != 2 || top[0] != 2 || top[1] != 3 {
		t.Errorf("top = %v", top)
	}
	if got := TopKObjects(rs, 10); len(got) != 3 {
		t.Errorf("oversized k = %v", got)
	}
	// Ties break to lower ID.
	tie := model.ResultSet{7: 0.5, 4: 0.5}
	if got := TopKObjects(tie, 1); got[0] != 4 {
		t.Errorf("tie-break = %v", got)
	}
}

func TestUncertainRegionGrowsWithTime(t *testing.T) {
	g, idx, dep := corridor(t)
	p := NewPruner(g, idx, dep, 1.5)
	info := ObjectInfo{Object: 1, Reader: 0, LastSeen: 100}
	ur0 := p.UncertainRegion(info, 100)
	if math.Abs(ur0.R-2) > 1e-9 {
		t.Errorf("fresh UR radius = %v, want device range 2", ur0.R)
	}
	ur10 := p.UncertainRegion(info, 110)
	if math.Abs(ur10.R-(2+15)) > 1e-9 {
		t.Errorf("10 s UR radius = %v, want 17", ur10.R)
	}
	// Clock skew (lastSeen in the future) clamps lmax at 0.
	urNeg := p.UncertainRegion(info, 90)
	if urNeg.R != 2 {
		t.Errorf("negative-age UR radius = %v", urNeg.R)
	}
}

// rangeCandidates and knnCandidates prune without a deadline.
func rangeCandidates(p *Pruner, infos []ObjectInfo, windows []geom.Rect, now model.Time) []model.ObjectID {
	out, _ := p.RangeCandidatesContext(context.Background(), infos, windows, now, p.Unhealthy())
	return out
}

func knnCandidates(p *Pruner, infos []ObjectInfo, q geom.Point, k int, now model.Time) []model.ObjectID {
	out, _ := p.KNNCandidatesContext(context.Background(), infos, q, k, now)
	return out
}

func TestRangeCandidatesFiltering(t *testing.T) {
	g, idx, dep := corridor(t)
	p := NewPruner(g, idx, dep, 1.5)
	infos := []ObjectInfo{
		{Object: 1, Reader: 0, LastSeen: 100}, // near x=10
		{Object: 2, Reader: 2, LastSeen: 100}, // near x=30
	}
	windows := []geom.Rect{geom.RectFromCorners(geom.Pt(8, 9), geom.Pt(12, 11))}
	got := rangeCandidates(p, infos, windows, 100)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("candidates = %v, want [1]", got)
	}
	// Later, object 2's uncertain region reaches the window too.
	got = rangeCandidates(p, infos, windows, 112)
	if len(got) != 2 {
		t.Errorf("grown candidates = %v, want both", got)
	}
	// No windows -> no candidates.
	if got := rangeCandidates(p, infos, nil, 100); len(got) != 0 {
		t.Errorf("no-window candidates = %v", got)
	}
}

func TestKNNCandidatesPruning(t *testing.T) {
	g, idx, dep := corridor(t)
	p := NewPruner(g, idx, dep, 1.5)
	infos := []ObjectInfo{
		{Object: 1, Reader: 0, LastSeen: 100}, // UR around x=10
		{Object: 2, Reader: 1, LastSeen: 100}, // UR around x=20
		{Object: 3, Reader: 2, LastSeen: 100}, // UR around x=30
	}
	// 2NN at x=12: objects 1 and 2 suffice; object 3's minimum distance
	// (~16) exceeds the 2nd smallest maximum (~10).
	got := knnCandidates(p, infos, geom.Pt(12, 10), 2, 100)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("candidates = %v, want [1 2]", got)
	}
	// k=3 keeps everyone.
	got = knnCandidates(p, infos, geom.Pt(12, 10), 3, 100)
	if len(got) != 3 {
		t.Errorf("k=3 candidates = %v", got)
	}
	// Empty input.
	if got := knnCandidates(p, nil, geom.Pt(12, 10), 2, 100); got != nil {
		t.Errorf("empty input candidates = %v", got)
	}
}

func TestKNNCandidatesNeverPrunesTrueNeighbors(t *testing.T) {
	// Safety property: the pruned set must always contain the objects whose
	// entire uncertain regions are nearest; with k = len(objects) nothing is
	// pruned.
	g, idx, dep := corridor(t)
	p := NewPruner(g, idx, dep, 1.5)
	infos := []ObjectInfo{
		{Object: 1, Reader: 0, LastSeen: 90},
		{Object: 2, Reader: 1, LastSeen: 95},
		{Object: 3, Reader: 2, LastSeen: 99},
	}
	got := knnCandidates(p, infos, geom.Pt(20, 10), 3, 100)
	if len(got) != 3 {
		t.Errorf("with k = n, candidates = %v", got)
	}
}
