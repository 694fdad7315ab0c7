package symbolic

import (
	"math"
	"sort"

	"repro/internal/depgraph"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/walkgraph"
)

// EdgeInterval is a contiguous piece of a walking-graph edge.
type EdgeInterval struct {
	Edge   walkgraph.EdgeID
	Lo, Hi float64
}

// Region is a set of edge intervals: the locations an object may occupy.
type Region struct {
	Intervals []EdgeInterval
}

// coveredRegion returns the region of a reader's covered fragments.
func coveredRegion(dg *depgraph.Graph, reader model.ReaderID) Region {
	var out Region
	for _, fid := range dg.OfReader(reader) {
		f := dg.Fragment(fid)
		out.Intervals = append(out.Intervals, EdgeInterval{Edge: f.Edge, Lo: f.Lo, Hi: f.Hi})
	}
	return out
}

// fragEndPos returns the walking-graph position of a fragment endpoint.
func fragEndPos(dg *depgraph.Graph, f depgraph.Fragment, node int) geom.Point {
	g := dg.WalkGraph()
	off := f.Lo
	if node == f.B {
		off = f.Hi
	}
	return g.Point(walkgraph.Location{Edge: f.Edge, Offset: off})
}

// boundarySeeds returns the Dijkstra seeds for an object that just left
// reader `from`: the boundary nodes of the reader's covered fragments. When
// the previous reading came from the paired reader of a directed
// partitioning device, the crossing direction is known, and only the
// boundary nodes on the far side (away from the previous reader) are seeded
// — the paper's Case 3.
func boundarySeeds(dg *depgraph.Graph, from, prev model.ReaderID) map[int]float64 {
	seeds := make(map[int]float64)
	directional := false
	var prevPos geom.Point
	if prev != model.NoReader {
		if _, ok := dg.Deployment().PairFor(prev, from); ok {
			directional = true
			prevPos = dg.Deployment().Reader(prev).Pos
		}
	}
	for _, fid := range dg.OfReader(from) {
		f := dg.Fragment(fid)
		if !f.Blocking {
			// Presence device: the object remains in the surrounding cell;
			// both ends seed (the paper's Case 2).
			seeds[f.A] = 0
			seeds[f.B] = 0
			continue
		}
		if directional {
			// Seed only the endpoint farther from the paired entry reader.
			da := fragEndPos(dg, f, f.A).Dist(prevPos)
			db := fragEndPos(dg, f, f.B).Dist(prevPos)
			if da > db {
				seeds[f.A] = 0
			} else {
				seeds[f.B] = 0
			}
			continue
		}
		seeds[f.A] = 0
		seeds[f.B] = 0
	}
	return seeds
}

// reachableRegion returns the region reachable within maxDist of leaving
// reader `from` (with optional direction knowledge from reader `prev`),
// excluding every partitioning reader's covered fragments.
func reachableRegion(dg *depgraph.Graph, from, prev model.ReaderID, maxDist float64) Region {
	dist := dg.ReachableNodeDists(boundarySeeds(dg, from, prev))
	var out Region
	for _, f := range dg.Fragments() {
		if f.Blocking {
			continue
		}
		var ivs []EdgeInterval
		if da := dist[f.A]; da <= maxDist {
			if reach := math.Min(f.Length(), maxDist-da); reach > 1e-9 {
				ivs = append(ivs, EdgeInterval{Edge: f.Edge, Lo: f.Lo, Hi: f.Lo + reach})
			}
		}
		if db := dist[f.B]; db <= maxDist {
			if reach := math.Min(f.Length(), maxDist-db); reach > 1e-9 {
				ivs = append(ivs, EdgeInterval{Edge: f.Edge, Lo: f.Hi - reach, Hi: f.Hi})
			}
		}
		out.Intervals = append(out.Intervals, mergeIntervals(ivs)...)
	}
	return out
}

// mergeIntervals merges overlapping intervals on the same edge.
func mergeIntervals(ivs []EdgeInterval) []EdgeInterval {
	if len(ivs) <= 1 {
		return ivs
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Lo < ivs[j].Lo })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}
