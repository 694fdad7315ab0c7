package baseline

import (
	"repro/internal/depgraph"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/walkgraph"
)

// Critical devices (Yang et al., discussed in the paper's related work):
// under a cell-granularity probability model, a range query's result can
// only change when an object ENTERs or LEAVEs one of the devices bounding
// the cells its window intersects. The registry uses this to skip
// re-evaluating range queries whose critical devices saw no events.
//
// With particle filter inference this becomes a heuristic rather than an
// exact rule — coasting alone spreads distributions and can move membership
// probabilities across the threshold without any device event — so the
// optimization is opt-in (Registry.SetEventDriven) and benchmarked.

// criticalDevices returns the readers whose events can affect a range query
// over the window: the devices adjacent to every deployment-graph cell the
// window touches.
func criticalDevices(dg *depgraph.Graph, window geom.Rect) map[model.ReaderID]bool {
	// Find the cells the window intersects.
	touched := make(map[depgraph.CellID]bool)
	for _, cell := range dg.Cells() {
		if cellIntersects(dg, cell, window) {
			touched[cell.ID] = true
		}
	}
	// Collect the devices adjacent to those cells.
	out := make(map[model.ReaderID]bool)
	for _, r := range dg.Deployment().Readers() {
		for _, c := range dg.CellsAdjacentTo(r.ID) {
			if touched[c] {
				out[r.ID] = true
				break
			}
		}
	}
	return out
}

// cellIntersects reports whether any part of a cell (hallway fragments at
// one-meter sampling, or member room areas) lies inside the window.
func cellIntersects(dg *depgraph.Graph, cell depgraph.Cell, window geom.Rect) bool {
	g := dg.WalkGraph()
	plan := g.Plan()
	for _, room := range cell.Rooms {
		if plan.Room(room).Bounds.Overlaps(window) {
			return true
		}
	}
	for _, fid := range cell.Fragments {
		f := dg.Fragment(fid)
		e := g.Edge(f.Edge)
		if e.Kind != walkgraph.HallwayEdge {
			continue
		}
		// The window must reach the hallway strip, not just the centerline:
		// grow it by half the hallway width before sampling the centerline.
		half := plan.Hallway(e.Hallway).Width / 2
		win := window.Expand(half)
		// Sample the fragment every meter (plus both ends).
		for off := f.Lo; ; off += 1.0 {
			clipped := off
			if clipped > f.Hi {
				clipped = f.Hi
			}
			if win.Contains(g.Point(walkgraph.Location{Edge: f.Edge, Offset: clipped})) {
				return true
			}
			if clipped == f.Hi {
				break
			}
		}
	}
	return false
}
