package anchor

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/walkgraph"
)

func smallGraph(t *testing.T) *walkgraph.Graph {
	t.Helper()
	b := floorplan.NewBuilder()
	h := b.AddHallway("h", geom.Seg(geom.Pt(0, 10), geom.Pt(20, 10)), 2)
	b.AddRoom("R0", geom.RectWH(4, 11, 6, 6), h)
	b.AddRoom("R1", geom.RectWH(8, 3, 6, 6), h)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return walkgraph.MustBuild(p)
}

func TestBuildIndexCounts(t *testing.T) {
	g := smallGraph(t)
	idx := MustBuildIndex(g, 1.0)
	// Hallway edges: 7 m + 4 m + 9 m => 7 + 4 + 9 anchors; plus 2 rooms.
	want := 7 + 4 + 9 + 2
	if got := idx.NumAnchors(); got != want {
		t.Errorf("NumAnchors = %d, want %d", got, want)
	}
	if idx.Spacing() != 1.0 {
		t.Errorf("Spacing = %v", idx.Spacing())
	}
}

func TestBuildIndexRejectsBadSpacing(t *testing.T) {
	g := smallGraph(t)
	if _, err := BuildIndex(g, 0); err == nil {
		t.Error("expected error for zero spacing")
	}
	if _, err := BuildIndex(g, -1); err == nil {
		t.Error("expected error for negative spacing")
	}
}

func TestRoomAnchorsAtRoomCenters(t *testing.T) {
	g := smallGraph(t)
	idx := MustBuildIndex(g, 1.0)
	a0 := idx.RoomAnchor(0)
	if a0 == NoAnchor {
		t.Fatal("room 0 has no anchor")
	}
	if !idx.Anchor(a0).Pos.Equal(geom.Pt(7, 14)) {
		t.Errorf("room 0 anchor at %v, want room center (7,14)", idx.Anchor(a0).Pos)
	}
	if idx.Anchor(a0).Room != 0 {
		t.Errorf("room 0 anchor Room = %d", idx.Anchor(a0).Room)
	}
	if idx.RoomAnchor(floorplan.RoomID(55)) != NoAnchor {
		t.Error("unknown room should have NoAnchor")
	}
}

func TestMultiDoorRoomGetsOneAnchor(t *testing.T) {
	b := floorplan.NewBuilder()
	h1 := b.AddHallway("h1", geom.Seg(geom.Pt(0, 10), geom.Pt(30, 10)), 2)
	h2 := b.AddHallway("h2", geom.Seg(geom.Pt(0, 20), geom.Pt(30, 20)), 2)
	b.AddHallway("v", geom.Seg(geom.Pt(0, 10), geom.Pt(0, 20)), 2)
	r := b.AddRoom("mid", geom.RectWH(10, 11, 10, 8), h1)
	b.AddDoor(r, h2, geom.Pt(15, 19))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := walkgraph.MustBuild(p)
	idx := MustBuildIndex(g, 1.0)
	count := 0
	for _, a := range idx.Anchors() {
		if a.Room == r {
			count++
		}
	}
	if count != 1 {
		t.Errorf("room with two doors has %d anchors, want 1", count)
	}
}

func TestHallwayAnchorSpacingUniform(t *testing.T) {
	g := smallGraph(t)
	idx := MustBuildIndex(g, 1.0)
	for _, e := range g.Edges() {
		if e.Kind != walkgraph.HallwayEdge {
			continue
		}
		ids := idx.OnEdge(e.ID)
		if len(ids) == 0 {
			t.Fatalf("hallway edge %d has no anchors", e.ID)
		}
		// Offsets ascend and successive gaps are equal.
		var prev float64 = -1
		gap := -1.0
		for i, id := range ids {
			off := idx.Anchor(id).Loc.Offset
			if off <= prev {
				t.Fatalf("edge %d anchors not sorted by offset", e.ID)
			}
			if i > 0 {
				if gap < 0 {
					gap = off - prev
				} else if math.Abs(off-prev-gap) > 1e-9 {
					t.Fatalf("edge %d non-uniform gaps", e.ID)
				}
			}
			prev = off
		}
	}
}

func TestSnapSameEdge(t *testing.T) {
	g := smallGraph(t)
	idx := MustBuildIndex(g, 1.0)
	// Point at (2.6, 10): nearest anchor should be within half a spacing.
	loc := g.NearestLocation(geom.Pt(2.6, 10))
	ap := idx.Snap(loc)
	if ap == NoAnchor {
		t.Fatal("Snap returned NoAnchor")
	}
	if d := idx.Anchor(ap).Pos.Dist(geom.Pt(2.6, 10)); d > 0.5+1e-9 {
		t.Errorf("snapped anchor %v is %v m away", idx.Anchor(ap).Pos, d)
	}
}

func TestSnapInsideRoomGoesToRoomAnchor(t *testing.T) {
	g := smallGraph(t)
	idx := MustBuildIndex(g, 1.0)
	// Deep inside room 0: the nearest anchor by network distance must be the
	// room's own anchor, never a hallway anchor through the wall.
	ap := idx.Snap(g.NearestLocation(geom.Pt(6, 15)))
	if idx.Anchor(ap).Room != 0 {
		t.Errorf("room interior snapped to %+v", idx.Anchor(ap))
	}
}

func TestSnapDoorEdgeHallwaySide(t *testing.T) {
	g := smallGraph(t)
	idx := MustBuildIndex(g, 1.0)
	// Find room 0's door edge; a location at its very start (on the hallway
	// centerline) is nearer to a hallway anchor (0.5 m) than to the room
	// anchor (4 m away).
	for _, e := range g.Edges() {
		if e.Kind == walkgraph.DoorEdge && e.Room == 0 {
			ap := idx.Snap(walkgraph.Location{Edge: e.ID, Offset: 0})
			if idx.Anchor(ap).Room == 0 {
				t.Error("door-edge start snapped into the room")
			}
			// And near the room end it must snap to the room anchor.
			ap = idx.Snap(walkgraph.Location{Edge: e.ID, Offset: e.Length - 0.1})
			if idx.Anchor(ap).Room != 0 {
				t.Error("door-edge end did not snap to the room anchor")
			}
		}
	}
}

func TestSnapIsNetworkNearestBruteForce(t *testing.T) {
	g := walkgraph.MustBuild(floorplan.DefaultOffice())
	idx := MustBuildIndex(g, 1.0)
	r := rng.New(17)
	for trial := 0; trial < 100; trial++ {
		e := g.Edge(walkgraph.EdgeID(r.Intn(g.NumEdges())))
		loc := walkgraph.Location{Edge: e.ID, Offset: r.Uniform(0, e.Length)}
		got := idx.Snap(loc)
		// Brute force: network distance to every anchor.
		nd := g.DistancesFromLocation(loc)
		bestDist := math.Inf(1)
		for _, a := range idx.Anchors() {
			if d := g.DistToLocation(loc, nd, a.Loc); d < bestDist {
				bestDist = d
			}
		}
		gotDist := g.DistBetween(loc, idx.Anchor(got).Loc)
		if math.Abs(gotDist-bestDist) > 1e-9 {
			t.Fatalf("Snap(%v) dist %v, brute-force best %v", loc, gotDist, bestDist)
		}
	}
}

func TestAnchorsByNetworkDistanceSorted(t *testing.T) {
	g := walkgraph.MustBuild(floorplan.DefaultOffice())
	idx := MustBuildIndex(g, 1.0)
	from := g.NearestLocation(geom.Pt(30, 12))
	ids, dists := idx.AnchorsByNetworkDistance(from)
	if len(ids) != idx.NumAnchors() || len(dists) != idx.NumAnchors() {
		t.Fatalf("lengths = %d, %d", len(ids), len(dists))
	}
	for i := 1; i < len(dists); i++ {
		if dists[i] < dists[i-1] {
			t.Fatalf("distances not ascending at %d: %v < %v", i, dists[i], dists[i-1])
		}
	}
	// The nearest anchor must be within half a spacing of the query point.
	if dists[0] > 0.5+1e-9 {
		t.Errorf("nearest anchor %v m away", dists[0])
	}
	// Verify a few entries against DistBetween.
	for _, i := range []int{0, len(ids) / 2, len(ids) - 1} {
		want := g.DistBetween(from, idx.Anchor(ids[i]).Loc)
		if math.Abs(dists[i]-want) > 1e-9 {
			t.Errorf("dists[%d] = %v, want %v", i, dists[i], want)
		}
	}
}

func TestDefaultOfficeAnchorCount(t *testing.T) {
	g := walkgraph.MustBuild(floorplan.DefaultOffice())
	idx := MustBuildIndex(g, 1.0)
	// ~156 m of hallway at 1 m spacing plus 30 room anchors.
	hallway := 0
	rooms := 0
	for _, a := range idx.Anchors() {
		if a.Room == floorplan.NoRoom {
			hallway++
		} else {
			rooms++
		}
	}
	if rooms != 30 {
		t.Errorf("room anchors = %d, want 30", rooms)
	}
	if hallway < 150 || hallway > 162 {
		t.Errorf("hallway anchors = %d, want ~156", hallway)
	}
}
