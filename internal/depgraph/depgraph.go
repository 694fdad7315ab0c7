// Package depgraph constructs the paper's deployment graph (Section 3.3,
// following Jensen et al. [9]): the indoor space is partitioned into cells —
// maximal regions an object can roam without being detected by any
// positioning device — and the devices form the edges separating them.
//
// The construction is realized on the indoor walking graph: every walking
// edge is cut at the boundaries of reader-covered intervals, producing a
// fragment graph. Fragments covered by partitioning readers cannot be
// traversed undetected and separate cells; fragments covered by presence
// readers sense but do not partition. Cells are the connected components of
// the traversable fragments: what ReachableNodeDists explores from a seed,
// the symbolic model's question. The package does not label them.
package depgraph

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/walkgraph"
)

// FragID indexes a fragment of the deployment graph.
type FragID int

// Fragment is a maximal piece of a walking-graph edge covered by at most one
// reader.
type Fragment struct {
	ID   FragID
	Edge walkgraph.EdgeID
	// Lo and Hi are the offsets bounding the fragment on its edge.
	Lo, Hi float64
	// Reader covers this fragment, or model.NoReader for free fragments.
	Reader model.ReaderID
	// Blocking marks fragments that cannot be traversed undetected
	// (covered by a partitioning reader).
	Blocking bool
	// A and B are the fragment-graph node indices at the Lo and Hi ends.
	// Nodes 0..NumWalkNodes-1 coincide with walking-graph nodes; higher
	// indices are interior cut points.
	A, B int
}

// Length returns the fragment's length in meters.
func (f Fragment) Length() float64 { return f.Hi - f.Lo }

// Graph is the deployment graph of a reader deployment over a walking graph.
type Graph struct {
	g   *walkgraph.Graph
	dep *rfid.Deployment

	frags    []Fragment
	incident [][]FragID
	byReader map[model.ReaderID][]FragID
	numNodes int
}

// Build constructs the deployment graph.
func Build(g *walkgraph.Graph, dep *rfid.Deployment) (*Graph, error) {
	dg := &Graph{
		g:        g,
		dep:      dep,
		byReader: make(map[model.ReaderID][]FragID),
		numNodes: g.NumNodes(),
	}
	if err := dg.buildFragments(); err != nil {
		return nil, err
	}
	return dg, nil
}

type covered struct {
	lo, hi float64
	reader model.ReaderID
}

func (dg *Graph) buildFragments() error {
	g := dg.g
	for _, e := range g.Edges() {
		seg := g.EdgeSegment(e.ID)
		var covs []covered
		if e.Kind == walkgraph.LinkEdge {
			// Stairwells are walled off: no reader coverage applies.
			dg.emit(e.ID, 0, e.Length, model.NoReader, int(e.A), int(e.B))
			continue
		}
		for _, r := range dg.dep.Readers() {
			t0, t1, ok := r.Circle().SegmentIntersection(seg)
			if !ok {
				continue
			}
			lo, hi := t0*e.Length, t1*e.Length
			// Walls block reads: only the hallway-side portion of a door
			// edge can be covered.
			if e.Kind == walkgraph.DoorEdge && hi > e.DoorAt {
				hi = e.DoorAt
			}
			if hi-lo <= 1e-9 {
				continue
			}
			covs = append(covs, covered{lo: lo, hi: hi, reader: r.ID})
		}
		sort.Slice(covs, func(i, j int) bool { return covs[i].lo < covs[j].lo })
		// Clip overlaps between readers (normally disjoint; earlier wins).
		for i := 1; i < len(covs); i++ {
			if covs[i].lo < covs[i-1].hi {
				covs[i].lo = covs[i-1].hi
			}
		}

		cursor := 0.0
		prevNode := int(e.A)
		first := len(dg.frags)
		for _, cv := range covs {
			if cv.hi <= cv.lo {
				continue
			}
			if cv.lo > cursor+1e-9 {
				prevNode = dg.emit(e.ID, cursor, cv.lo, model.NoReader, prevNode, -1)
				cursor = cv.lo
			}
			endNode := -1
			if e.Length-cv.hi <= 1e-9 {
				endNode = int(e.B)
			}
			prevNode = dg.emit(e.ID, cursor, cv.hi, cv.reader, prevNode, endNode)
			cursor = cv.hi
		}
		if e.Length-cursor > 1e-9 || len(dg.frags) == first {
			dg.emit(e.ID, cursor, e.Length, model.NoReader, prevNode, int(e.B))
		}
	}
	dg.incident = make([][]FragID, dg.numNodes)
	for _, f := range dg.frags {
		dg.incident[f.A] = append(dg.incident[f.A], f.ID)
		dg.incident[f.B] = append(dg.incident[f.B], f.ID)
	}
	if len(dg.frags) == 0 {
		return fmt.Errorf("depgraph: empty fragment graph")
	}
	return nil
}

func (dg *Graph) emit(e walkgraph.EdgeID, lo, hi float64, reader model.ReaderID, startNode, endNode int) int {
	if endNode < 0 {
		endNode = dg.numNodes
		dg.numNodes++
	}
	blocking := false
	if reader != model.NoReader {
		blocking = dg.dep.Reader(reader).Kind == rfid.Partitioning
	}
	f := Fragment{
		ID:       FragID(len(dg.frags)),
		Edge:     e,
		Lo:       lo,
		Hi:       hi,
		Reader:   reader,
		Blocking: blocking,
		A:        startNode,
		B:        endNode,
	}
	dg.frags = append(dg.frags, f)
	if reader != model.NoReader {
		dg.byReader[reader] = append(dg.byReader[reader], f.ID)
	}
	return endNode
}

// WalkGraph returns the underlying walking graph.
func (dg *Graph) WalkGraph() *walkgraph.Graph { return dg.g }

// Deployment returns the underlying reader deployment.
func (dg *Graph) Deployment() *rfid.Deployment { return dg.dep }

// Fragments returns all fragments indexed by FragID. Must not be modified.
func (dg *Graph) Fragments() []Fragment { return dg.frags }

// Fragment returns one fragment.
func (dg *Graph) Fragment(id FragID) Fragment { return dg.frags[id] }

// OfReader returns the fragments covered by a reader.
func (dg *Graph) OfReader(r model.ReaderID) []FragID { return dg.byReader[r] }

// ReachableNodeDists runs Dijkstra over traversable fragments from the given
// seed nodes (with initial distances), returning per-node shortest distances.
// Blocking fragments are never traversed.
func (dg *Graph) ReachableNodeDists(seeds map[int]float64) []float64 {
	dist := make([]float64, dg.numNodes)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	inQueue := make(map[int]bool)
	for n, d := range seeds {
		if d < dist[n] {
			dist[n] = d
			inQueue[n] = true
		}
	}
	for len(inQueue) > 0 {
		best, bestD := -1, math.Inf(1)
		for n := range inQueue {
			if dist[n] < bestD {
				best, bestD = n, dist[n]
			}
		}
		delete(inQueue, best)
		for _, fid := range dg.incident[best] {
			f := dg.frags[fid]
			if f.Blocking {
				continue
			}
			other := f.A
			if other == best {
				other = f.B
			}
			if nd := bestD + f.Length(); nd < dist[other] {
				dist[other] = nd
				inQueue[other] = true
			}
		}
	}
	return dist
}
