package walkgraph

import (
	"math"

	"repro/internal/floorplan"
)

// EdgeTable is a struct-of-arrays snapshot of the per-edge fields the
// particle filter's inner loop touches every second for every particle.
// Reading Kind[e] or DoorAt[e] out of a flat array avoids copying the full
// 80-byte Edge struct per predicate, which is what Graph.Edge does; on the
// 1 Hz × Ns-particles hot path that copy dominates the classification cost.
// The table is immutable once built and safe for concurrent readers.
type EdgeTable struct {
	// Kind mirrors Edge.Kind.
	Kind []EdgeKind
	// Length mirrors Edge.Length.
	Length []float64
	// DoorAt is the room-interval start: offsets at or beyond DoorAt[e] are
	// inside Room[e]. For non-door edges it is +Inf so the comparison
	// `off >= DoorAt[e]` is false for every finite offset, making the
	// in-room test a single branch-free compare on the hot path.
	DoorAt []float64
	// Room mirrors Edge.Room (floorplan.NoRoom for non-door edges).
	Room []floorplan.RoomID
	// A and B mirror Edge.A and Edge.B as int32, sized for the SoA motion
	// kernel's flat particle arrays (graphs are far below 2^31 nodes).
	A, B []int32
	// RoomEnd is the RoomCenter endpoint of a door edge (the node a resting
	// particle's room-exit step leaves from), or -1 for edges without one.
	RoomEnd []int32
	// Walk packs the fields the motion kernel's walk loop reads on every
	// iteration into one 16-byte row, so advancing a particle along an edge
	// costs a single indexed load instead of three independent array
	// accesses. Walk[e] duplicates Length[e], A[e], B[e].
	Walk []WalkRow
}

// WalkRow is one row of EdgeTable.Walk: the per-edge fields consumed by each
// iteration of the particle walk loop. The 16-byte size keeps indexing a
// shift instead of a multiply.
type WalkRow struct {
	Length float64
	A, B   int32
}

// EdgeTable returns the graph's per-edge hot-loop table, building it on
// first use. The result is shared and must not be modified.
func (g *Graph) EdgeTable() *EdgeTable {
	g.tableOnce.Do(func() {
		t := &EdgeTable{
			Kind:    make([]EdgeKind, len(g.edges)),
			Length:  make([]float64, len(g.edges)),
			DoorAt:  make([]float64, len(g.edges)),
			Room:    make([]floorplan.RoomID, len(g.edges)),
			A:       make([]int32, len(g.edges)),
			B:       make([]int32, len(g.edges)),
			RoomEnd: make([]int32, len(g.edges)),
			Walk:    make([]WalkRow, len(g.edges)),
		}
		for i, e := range g.edges {
			t.Kind[i] = e.Kind
			t.Length[i] = e.Length
			t.Room[i] = e.Room
			if e.Kind == DoorEdge {
				t.DoorAt[i] = e.DoorAt
			} else {
				t.DoorAt[i] = math.Inf(1)
			}
			t.A[i] = int32(e.A)
			t.B[i] = int32(e.B)
			t.Walk[i] = WalkRow{Length: e.Length, A: int32(e.A), B: int32(e.B)}
			t.RoomEnd[i] = -1
			if g.nodes[e.B].Kind == RoomCenter {
				t.RoomEnd[i] = int32(e.B)
			} else if g.nodes[e.A].Kind == RoomCenter {
				t.RoomEnd[i] = int32(e.A)
			}
		}
		g.table = t
	})
	return g.table
}
