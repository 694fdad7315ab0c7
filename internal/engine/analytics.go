package engine

import (
	"repro/internal/anchor"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
)

// occupancyOn accumulates per-object distributions into per-room
// expectations. Objects and anchors are visited in ascending order — the
// order the slices are in: float addition is not associative, so a pinned
// order is what makes the answer reproducible across runs — and identical
// on every engine, which all come through here (Run) with the same merged
// distributions.
func occupancyOn(idx *anchor.Index, dists []anchor.ObjDist) []RoomOdds {
	byRoom := make(map[floorplan.RoomID]float64)
	for _, od := range dists {
		for i, ap := range od.Dist.IDs {
			byRoom[idx.Anchor(ap).Room] += od.Dist.P[i]
		}
	}
	out := make([]RoomOdds, 0, len(byRoom))
	for room, p := range byRoom {
		out = append(out, RoomOdds{Room: room, P: p})
	}
	sortRoomOdds(out)
	return out
}

func sortRoomOdds(out []RoomOdds) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
}

func less(a, b RoomOdds) bool {
	if a.P != b.P {
		return a.P > b.P
	}
	return a.Room < b.Room
}

// TrajectoryPoint is one reconstructed sample of an object's past.
type TrajectoryPoint struct {
	Time model.Time
	// Mean is the probability-weighted position estimate.
	Mean geom.Point
	// Room is the most probable room at that moment (NoRoom for hallway).
	Room floorplan.RoomID
	// RoomProb is the probability of Room (or the hallway share).
	RoomProb float64
}

// Trajectory reconstructs an object's movement between two past time stamps
// by running historical inference every step seconds. It needs KeepHistory
// for times beyond the live retention window. Samples where the object had
// no readings yet are skipped.
func (e *Sharded) Trajectory(obj model.ObjectID, from, to, step model.Time) []TrajectoryPoint {
	if step <= 0 {
		step = 1
	}
	var out []TrajectoryPoint
	for t := from; t <= to; t += step {
		tab := e.PreprocessAt([]model.ObjectID{obj}, t)
		dist := tab.DistributionOf(obj)
		if dist.Len() == 0 {
			continue
		}
		var mx, my float64
		for i, ap := range dist.IDs {
			a, p := e.idx.Anchor(ap), dist.P[i]
			mx += a.Pos.X * p
			my += a.Pos.Y * p
		}
		tp := TrajectoryPoint{Time: t, Mean: geom.Pt(mx, my)}
		odds := roomOdds(e.idx, dist)
		if len(odds) > 0 {
			tp.Room, tp.RoomProb = odds[0].Room, odds[0].P
		}
		out = append(out, tp)
	}
	return out
}
