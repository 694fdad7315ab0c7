package depgraph

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/walkgraph"
)

// corridor: 40 m hallway, rooms on both sides, three partitioning readers at
// x = 10, 20, 30 (range 2) cutting the hallway into four sections.
func corridor(t *testing.T) (*walkgraph.Graph, *rfid.Deployment) {
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
	return g, dep
}

func mustBuild(t *testing.T, g *walkgraph.Graph, dep *rfid.Deployment) *Graph {
	t.Helper()
	dg, err := Build(g, dep)
	if err != nil {
		t.Fatal(err)
	}
	return dg
}

// cells labels the deployment graph's cells — the connected components of
// the traversable fragments — by flooding ReachableNodeDists from every
// traversable fragment no earlier flood reached: the cell of each fragment
// (-1 for a blocking one) and the number of cells.
func cells(dg *Graph) (cellOf []int, n int) {
	cellOf = make([]int, len(dg.frags))
	for i := range cellOf {
		cellOf[i] = -1
	}
	for _, f := range dg.frags {
		if f.Blocking || cellOf[f.ID] >= 0 {
			continue
		}
		dist := dg.ReachableNodeDists(map[int]float64{f.A: 0})
		for _, o := range dg.frags {
			if !o.Blocking && !math.IsInf(dist[o.A], 1) {
				cellOf[o.ID] = n
			}
		}
		n++
	}
	return cellOf, n
}

// cellAt returns the cell containing a walking-graph location, or -1 when
// the location is inside a partitioning reader's covered interval.
func cellAt(dg *Graph, cellOf []int, loc walkgraph.Location) int {
	for _, f := range dg.frags {
		if f.Edge == loc.Edge && loc.Offset >= f.Lo-1e-9 && loc.Offset <= f.Hi+1e-9 {
			return cellOf[f.ID]
		}
	}
	return -1
}

// adjacentCells returns the cells a reader separates or senses: those of
// the traversable fragments touching its covered fragments.
func adjacentCells(dg *Graph, cellOf []int, r model.ReaderID) map[int]bool {
	out := map[int]bool{}
	for _, fid := range dg.OfReader(r) {
		f := dg.Fragment(fid)
		for _, node := range []int{f.A, f.B} {
			for _, o := range dg.incident[node] {
				if c := cellOf[o]; c >= 0 {
					out[c] = true
				}
			}
		}
	}
	return out
}

// roomCell returns the cell of the named room's interior.
func roomCell(t *testing.T, dg *Graph, cellOf []int, name string) int {
	t.Helper()
	for _, n := range dg.g.Nodes() {
		if n.Kind == walkgraph.RoomCenter && dg.g.Plan().Room(n.Room).Name == name {
			return cellOf[dg.incident[n.ID][0]]
		}
	}
	t.Fatalf("no room %q", name)
	return -1
}

func TestFragmentsTileEveryEdge(t *testing.T) {
	g, dep := corridor(t)
	dg := mustBuild(t, g, dep)
	onEdge := make([][]Fragment, g.NumEdges())
	for _, f := range dg.Fragments() {
		onEdge[f.Edge] = append(onEdge[f.Edge], f)
	}
	for _, e := range g.Edges() {
		frags := onEdge[e.ID]
		if len(frags) == 0 {
			t.Fatalf("edge %d has no fragments", e.ID)
		}
		cursor := 0.0
		for _, f := range frags {
			if math.Abs(f.Lo-cursor) > 1e-6 {
				t.Fatalf("edge %d fragment gap at %v", e.ID, cursor)
			}
			cursor = f.Hi
		}
		if math.Abs(cursor-e.Length) > 1e-6 {
			t.Fatalf("edge %d fragments end at %v of %v", e.ID, cursor, e.Length)
		}
	}
}

func TestEveryReaderHasFragments(t *testing.T) {
	g, dep := corridor(t)
	dg := mustBuild(t, g, dep)
	for _, r := range dep.Readers() {
		if len(dg.OfReader(r.ID)) == 0 {
			t.Errorf("reader %d has no covered fragments", r.ID)
		}
		for _, fid := range dg.OfReader(r.ID) {
			if !dg.Fragment(fid).Blocking {
				t.Errorf("partitioning reader %d has non-blocking fragment", r.ID)
			}
		}
	}
}

func TestCellPartition(t *testing.T) {
	g, dep := corridor(t)
	dg := mustBuild(t, g, dep)
	// Three readers cut the single hallway into four cells.
	cellOf, n := cells(dg)
	if n != 4 {
		t.Fatalf("cells = %d, want 4", n)
	}
	// The two rooms belong to the cells of their door sections: room 0's
	// door is at x=15 (between readers 0 and 1), room 1's at x=27 (between
	// readers 1 and 2).
	if roomCell(t, dg, cellOf, "R0") == roomCell(t, dg, cellOf, "R1") {
		t.Errorf("rooms in the same cell despite reader between their doors")
	}
}

func TestCellAt(t *testing.T) {
	g, dep := corridor(t)
	dg := mustBuild(t, g, dep)
	cellOf, _ := cells(dg)
	// Points in different sections land in different cells.
	ca := cellAt(dg, cellOf, g.NearestLocation(geom.Pt(5, 10)))
	cb := cellAt(dg, cellOf, g.NearestLocation(geom.Pt(15, 10)))
	if ca < 0 || cb < 0 || ca == cb {
		t.Errorf("cells: %d vs %d", ca, cb)
	}
	// A point inside a reader's range belongs to no cell.
	if got := cellAt(dg, cellOf, g.NearestLocation(geom.Pt(10, 10))); got >= 0 {
		t.Errorf("covered point in cell %d", got)
	}
}

func TestCellsAdjacentToPartitioningReader(t *testing.T) {
	g, dep := corridor(t)
	dg := mustBuild(t, g, dep)
	cellOf, _ := cells(dg)
	// The middle reader separates the second and third hallway sections.
	if got := adjacentCells(dg, cellOf, 1); len(got) != 2 {
		t.Fatalf("adjacent cells = %v, want 2", got)
	}
	// End readers also separate two cells each.
	if got := adjacentCells(dg, cellOf, 0); len(got) != 2 {
		t.Errorf("reader 0 adjacent cells = %v", got)
	}
}

// TestPresenceDeviceDoesNotPartition mirrors the paper's reader3: a presence
// device senses its surroundings but objects can pass it undetected, so the
// space is not split.
func TestPresenceDeviceDoesNotPartition(t *testing.T) {
	b := floorplan.NewBuilder()
	h := b.AddHallway("h", geom.Seg(geom.Pt(0, 10), geom.Pt(40, 10)), 2)
	b.AddRoom("R0", geom.RectWH(12, 3, 6, 6), h)
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := walkgraph.MustBuild(plan)
	dep := rfid.NewDeployment([]rfid.Reader{
		{Pos: geom.Pt(20, 10), Range: 2, Kind: rfid.Presence},
	})
	dg := mustBuild(t, g, dep)
	cellOf, n := cells(dg)
	if n != 1 {
		t.Fatalf("cells with a single presence device = %d, want 1", n)
	}
	// Its fragments are sensed but not blocking.
	for _, fid := range dg.OfReader(0) {
		if dg.Fragment(fid).Blocking {
			t.Error("presence fragment marked blocking")
		}
		if cellOf[fid] < 0 {
			t.Error("presence fragment outside any cell")
		}
	}
	// The presence device is adjacent to exactly the one cell containing it.
	if got := adjacentCells(dg, cellOf, 0); len(got) != 1 {
		t.Errorf("presence adjacency = %v", got)
	}
}

// TestFigure2Deployment reproduces the topology of the paper's Figure 2: a
// hallway connecting a staircase-like end section (separated by a directed
// pair) and rooms reachable without detection, plus a presence reader inside
// the middle cell.
func TestFigure2Deployment(t *testing.T) {
	b := floorplan.NewBuilder()
	h := b.AddHallway("hall", geom.Seg(geom.Pt(0, 10), geom.Pt(60, 10)), 2)
	b.AddRoom("roomA", geom.RectWH(20, 3, 8, 6), h)  // opens mid-hallway
	b.AddRoom("roomB", geom.RectWH(30, 3, 8, 6), h)  // opens mid-hallway
	b.AddRoom("stair", geom.RectWH(52, 11, 8, 6), h) // the "staircase" end
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := walkgraph.MustBuild(plan)
	dep := rfid.NewDeployment([]rfid.Reader{
		{Pos: geom.Pt(44, 10), Range: 1.5},                      // reader1
		{Pos: geom.Pt(48, 10), Range: 1.5},                      // reader1'
		{Pos: geom.Pt(10, 10), Range: 1.5},                      // reader4 (undirected)
		{Pos: geom.Pt(30, 10), Range: 1.5, Kind: rfid.Presence}, // reader3
	})
	if err := dep.AddDirectedPair(0, 1); err != nil {
		t.Fatal(err)
	}
	dg := mustBuild(t, g, dep)
	// Cells: west end (left of reader4), the large middle cell with both
	// rooms and the presence reader, the small gap between the pair, and the
	// staircase cell east of reader1'.
	cellOf, n := cells(dg)
	if n != 4 {
		t.Fatalf("cells = %d, want 4", n)
	}
	// Both mid rooms share the middle cell.
	midCell := roomCell(t, dg, cellOf, "roomA")
	if midCell < 0 {
		t.Fatal("roomA not in any cell")
	}
	if roomCell(t, dg, cellOf, "roomB") != midCell {
		t.Error("roomA and roomB should share a cell (reachable undetected)")
	}
	if roomCell(t, dg, cellOf, "stair") == midCell {
		t.Error("the staircase is reachable from the middle cell undetected")
	}
	// The presence reader lives inside the middle cell.
	if adj := adjacentCells(dg, cellOf, 3); len(adj) != 1 || !adj[midCell] {
		t.Errorf("presence reader adjacency = %v, want {%d}", adj, midCell)
	}
	// The directed pair is registered and resolvable in both orders.
	if _, ok := dep.PairFor(0, 1); !ok {
		t.Error("PairFor(0,1) not found")
	}
	if _, ok := dep.PairFor(1, 0); !ok {
		t.Error("PairFor(1,0) not found")
	}
	if _, ok := dep.PairFor(0, 2); ok {
		t.Error("PairFor(0,2) should not exist")
	}
}

func TestAddDirectedPairValidation(t *testing.T) {
	_, dep := corridor(t)
	if err := dep.AddDirectedPair(0, 0); err == nil {
		t.Error("same-reader pair accepted")
	}
	if err := dep.AddDirectedPair(0, 99); err == nil {
		t.Error("unknown reader accepted")
	}
	presDep := rfid.NewDeployment([]rfid.Reader{
		{Pos: geom.Pt(0, 0), Range: 1},
		{Pos: geom.Pt(5, 0), Range: 1, Kind: rfid.Presence},
	})
	if err := presDep.AddDirectedPair(0, 1); err == nil {
		t.Error("presence reader in pair accepted")
	}
}

func TestReachableNodeDistsBlocked(t *testing.T) {
	g, dep := corridor(t)
	dg := mustBuild(t, g, dep)
	// Seed at the west end: distances east of reader 0 must be unreachable.
	westLoc := g.NearestLocation(geom.Pt(0, 10))
	e := g.Edge(westLoc.Edge)
	seeds := map[int]float64{int(e.A): 0}
	dist := dg.ReachableNodeDists(seeds)
	reachedFar := false
	for _, f := range dg.Fragments() {
		if f.Blocking {
			continue
		}
		mid := g.Point(walkgraph.Location{Edge: f.Edge, Offset: (f.Lo + f.Hi) / 2})
		if mid.X > 12 && (dist[f.A] < math.Inf(1) || dist[f.B] < math.Inf(1)) {
			reachedFar = true
		}
	}
	if reachedFar {
		t.Error("Dijkstra leaked past a blocking fragment")
	}
}

func TestReaderKindString(t *testing.T) {
	if rfid.Partitioning.String() != "partitioning" || rfid.Presence.String() != "presence" {
		t.Error("kind strings")
	}
	if rfid.ReaderKind(9).String() == "" {
		t.Error("unknown kind string empty")
	}
}
