// Package anchor implements the paper's anchor point indexing model. Anchor
// points discretize the continuous walking-graph edges: they are predefined
// points at a uniform spacing on hallway edges plus one anchor per room (at
// the room's center, matching the paper's room-granularity resolution).
// After particle filtering, each particle is snapped to its network-nearest
// anchor point, and the resulting probability masses are indexed in the
// APtoObjHT hash table that query evaluation reads.
package anchor

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/walkgraph"
)

// ID identifies an anchor point.
type ID int

// NoAnchor marks the absence of an anchor point.
const NoAnchor ID = -1

// Anchor is a single anchor point.
type Anchor struct {
	ID  ID
	Loc walkgraph.Location
	Pos geom.Point
	// Room is set for the per-room anchor, floorplan.NoRoom for hallway
	// anchors.
	Room floorplan.RoomID
	// Hallway is set for hallway anchors, floorplan.NoHallway otherwise.
	Hallway floorplan.HallwayID
}

// Index is the immutable set of anchor points for a walking graph, with the
// acceleration structures needed to snap particles and expand searches.
type Index struct {
	g       *walkgraph.Graph
	spacing float64
	anchors []Anchor
	// byEdge lists, per edge, the anchors on it sorted by offset.
	byEdge [][]ID
	// roomAnchor maps each room to its single anchor.
	roomAnchor map[floorplan.RoomID]ID
	// snap is everything Snap reads, flattened per edge so the per-particle
	// loop touches no Edge struct, closure or map.
	snap snapTables
}

// snapTables holds Snap's inputs as flat arrays indexed by edge: the edge
// length, the nearest anchor beyond each endpoint, and the edge's own
// anchors as the range [start[e], start[e+1]) of ids/offs (ascending
// offset).
type snapTables struct {
	length     []float64
	endA, endB []nodeNearest
	start      []int32
	ids        []ID
	offs       []float64
}

type nodeNearest struct {
	anchor ID
	dist   float64
}

// DefaultSpacing is the paper's example anchor spacing: one meter.
const DefaultSpacing = 1.0

// BuildIndex places anchor points on the walking graph at the given spacing
// (in meters) and precomputes the snapping structures.
func BuildIndex(g *walkgraph.Graph, spacing float64) (*Index, error) {
	if spacing <= 0 {
		return nil, fmt.Errorf("anchor: spacing must be positive, got %v", spacing)
	}
	idx := &Index{
		g:          g,
		spacing:    spacing,
		byEdge:     make([][]ID, g.NumEdges()),
		roomAnchor: make(map[floorplan.RoomID]ID),
	}
	for _, e := range g.Edges() {
		switch e.Kind {
		case walkgraph.HallwayEdge:
			n := int(math.Round(e.Length / spacing))
			if n < 1 {
				n = 1
			}
			step := e.Length / float64(n)
			for i := 0; i < n; i++ {
				off := (float64(i) + 0.5) * step
				loc := walkgraph.Location{Edge: e.ID, Offset: off}
				idx.add(Anchor{
					Loc:     loc,
					Pos:     g.Point(loc),
					Room:    floorplan.NoRoom,
					Hallway: e.Hallway,
				})
			}
		case walkgraph.LinkEdge:
			// Links carry no anchors: they are transit space, not queryable
			// floor area. Particles on a link snap through its endpoints.
		case walkgraph.DoorEdge:
			if _, ok := idx.roomAnchor[e.Room]; ok {
				continue // room already has its anchor via another door
			}
			loc := walkgraph.Location{Edge: e.ID, Offset: e.Length}
			id := idx.add(Anchor{
				Loc:     loc,
				Pos:     g.Point(loc),
				Room:    e.Room,
				Hallway: floorplan.NoHallway,
			})
			idx.roomAnchor[e.Room] = id
		}
	}
	idx.flattenSnap(idx.computeNodeNearest())
	return idx, nil
}

// flattenSnap fills the per-edge snapping tables from byEdge and the
// per-node nearest anchors.
func (idx *Index) flattenSnap(nearest []nodeNearest) {
	edges := idx.g.Edges()
	t := snapTables{
		length: make([]float64, len(edges)),
		endA:   make([]nodeNearest, len(edges)),
		endB:   make([]nodeNearest, len(edges)),
		start:  make([]int32, len(edges)+1),
	}
	for i, e := range edges {
		t.length[i] = e.Length
		t.endA[i], t.endB[i] = nearest[e.A], nearest[e.B]
		for _, id := range idx.byEdge[e.ID] {
			t.ids = append(t.ids, id)
			t.offs = append(t.offs, idx.anchors[id].Loc.Offset)
		}
		t.start[i+1] = int32(len(t.ids))
	}
	idx.snap = t
}

// MustBuildIndex is BuildIndex for known-valid parameters; panics on error.
func MustBuildIndex(g *walkgraph.Graph, spacing float64) *Index {
	idx, err := BuildIndex(g, spacing)
	if err != nil {
		panic(err)
	}
	return idx
}

func (idx *Index) add(a Anchor) ID {
	a.ID = ID(len(idx.anchors))
	idx.anchors = append(idx.anchors, a)
	idx.byEdge[a.Loc.Edge] = append(idx.byEdge[a.Loc.Edge], a.ID)
	return a.ID
}

// Spacing returns the anchor spacing in meters.
func (idx *Index) Spacing() float64 { return idx.spacing }

// Anchors returns all anchors indexed by ID. The slice must not be modified.
func (idx *Index) Anchors() []Anchor { return idx.anchors }

// NumAnchors returns the anchor count.
func (idx *Index) NumAnchors() int { return len(idx.anchors) }

// Anchor returns the anchor with the given ID.
func (idx *Index) Anchor(id ID) Anchor { return idx.anchors[id] }

// RoomAnchor returns the anchor representing a room, or NoAnchor.
func (idx *Index) RoomAnchor(r floorplan.RoomID) ID {
	if id, ok := idx.roomAnchor[r]; ok {
		return id
	}
	return NoAnchor
}

// OnEdge returns the anchors on the given edge, sorted by offset. The slice
// must not be modified.
func (idx *Index) OnEdge(e walkgraph.EdgeID) []ID { return idx.byEdge[e] }

// anchorHeapItem propagates (distance, anchor) pairs for node-nearest
// computation.
type anchorHeapItem struct {
	node   walkgraph.NodeID
	dist   float64
	anchor ID
}

type anchorHeap []anchorHeapItem

func (h anchorHeap) Len() int            { return len(h) }
func (h anchorHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h anchorHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *anchorHeap) Push(x interface{}) { *h = append(*h, x.(anchorHeapItem)) }
func (h *anchorHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// computeNodeNearest runs a multi-source Dijkstra seeded by every anchor's
// distance to its edge endpoints, yielding the exact network-nearest anchor
// (and its distance) for every node.
func (idx *Index) computeNodeNearest() []nodeNearest {
	g := idx.g
	nearest := make([]nodeNearest, g.NumNodes())
	for i := range nearest {
		nearest[i] = nodeNearest{anchor: NoAnchor, dist: math.Inf(1)}
	}
	h := anchorHeap{}
	for _, a := range idx.anchors {
		e := g.Edge(a.Loc.Edge)
		h = append(h,
			anchorHeapItem{node: e.A, dist: a.Loc.Offset, anchor: a.ID},
			anchorHeapItem{node: e.B, dist: e.Length - a.Loc.Offset, anchor: a.ID},
		)
	}
	heap.Init(&h)
	for h.Len() > 0 {
		it := heap.Pop(&h).(anchorHeapItem)
		cur := &nearest[it.node]
		if it.dist >= cur.dist {
			continue
		}
		*cur = nodeNearest{anchor: it.anchor, dist: it.dist}
		for _, eid := range g.IncidentEdges(it.node) {
			e := g.Edge(eid)
			next := e.B
			if next == it.node {
				next = e.A
			}
			nd := it.dist + e.Length
			if nd < nearest[next].dist {
				heap.Push(&h, anchorHeapItem{node: next, dist: nd, anchor: it.anchor})
			}
		}
	}
	return nearest
}

// Snap returns the network-nearest anchor to the given location. This is the
// paper's particle-to-anchor assignment. Candidates are compared in a fixed
// order — the edge's anchor below the offset, the one at or above it, then
// the nearest anchors beyond endpoints A and B — and a later candidate wins
// only when strictly closer, which pins every tie.
func (idx *Index) Snap(loc walkgraph.Location) ID {
	t := &idx.snap
	e := loc.Edge
	length, off := t.length[e], loc.Offset
	if off < 0 {
		off = 0
	} else if off > length {
		off = length
	}
	best, bestDist := NoAnchor, math.Inf(1)
	if lo, hi := int(t.start[e]), int(t.start[e+1]); lo < hi {
		// First anchor of the edge at or above the offset.
		i, j := lo, hi
		for i < j {
			h := int(uint(i+j) >> 1)
			if !(t.offs[h] >= off) {
				i = h + 1
			} else {
				j = h
			}
		}
		if i > lo {
			if d := math.Abs(t.offs[i-1] - off); d < bestDist {
				best, bestDist = t.ids[i-1], d
			}
		}
		if i < hi {
			if d := math.Abs(t.offs[i] - off); d < bestDist {
				best, bestDist = t.ids[i], d
			}
		}
	}
	if nn := t.endA[e]; nn.anchor != NoAnchor {
		if d := off + nn.dist; d < bestDist {
			best, bestDist = nn.anchor, d
		}
	}
	if nn := t.endB[e]; nn.anchor != NoAnchor {
		if d := (length - off) + nn.dist; d < bestDist {
			best = nn.anchor
		}
	}
	return best
}

// AnchorsByNetworkDistance returns all anchor IDs sorted by ascending
// shortest network distance from the given location, together with the
// distances. This is the visit order of the paper's kNN expansion
// (Algorithm 4 expands the frontier one anchor at a time; visiting anchors
// in ascending network distance is equivalent).
func (idx *Index) AnchorsByNetworkDistance(from walkgraph.Location) ([]ID, []float64) {
	nd := idx.g.DistancesFromLocation(from)
	ids := make([]ID, len(idx.anchors))
	dists := make([]float64, len(idx.anchors))
	for i, a := range idx.anchors {
		ids[i] = a.ID
		dists[i] = idx.g.DistToLocation(from, nd, a.Loc)
	}
	sort.Sort(&byDist{ids: ids, dists: dists})
	return ids, dists
}

type byDist struct {
	ids   []ID
	dists []float64
}

func (b *byDist) Len() int           { return len(b.ids) }
func (b *byDist) Less(i, j int) bool { return b.dists[i] < b.dists[j] }
func (b *byDist) Swap(i, j int) {
	b.ids[i], b.ids[j] = b.ids[j], b.ids[i]
	b.dists[i], b.dists[j] = b.dists[j], b.dists[i]
}
