package engine

import (
	"context"
	"math"
	"sort"

	"repro/internal/anchor"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
)

// Localization summarizes one object's inferred whereabouts: a point
// estimate, the most likely anchor, room-level odds, and an uncertainty
// measure. It is the track-and-trace view on top of the query engine.
type Localization struct {
	Object model.ObjectID
	// Mean is the probability-weighted mean position.
	Mean geom.Point
	// Mode is the most probable anchor point.
	Mode anchor.ID
	// ModeProb is the probability mass at Mode.
	ModeProb float64
	// Room is the most probable room, or floorplan.NoRoom when the object
	// is more likely in a hallway.
	Room floorplan.RoomID
	// RoomProb is the probability of Room (or of "some hallway" when Room
	// is NoRoom).
	RoomProb float64
	// Entropy is the Shannon entropy of the anchor distribution in nats;
	// 0 means certainty.
	Entropy float64
}

// RoomOdds is one entry of a room-level localization ranking.
type RoomOdds struct {
	// Room is a room ID, or floorplan.NoRoom for the hallway share.
	Room floorplan.RoomID
	P    float64
}

// Localize runs the particle filter for one object and summarizes the
// result. ok is false when the object has no readings to infer from.
func (s *store) Localize(obj model.ObjectID) (Localization, bool) {
	dists, _ := s.preprocessDists(context.Background(), []model.ObjectID{obj}, Query{})
	if len(dists) == 0 || dists[0].Dist.Len() == 0 {
		return Localization{}, false
	}
	return s.summarize(obj, dists[0].Dist), true
}

// RoomDistribution returns the object's room-level distribution, ranked by
// descending probability; the hallway share appears as a single NoRoom
// entry. ok is false when the object cannot be localized.
func (e *Sharded) RoomDistribution(obj model.ObjectID) ([]RoomOdds, bool) {
	tab := e.Preprocess([]model.ObjectID{obj})
	dist := tab.DistributionOf(obj)
	if dist.Len() == 0 {
		return nil, false
	}
	return roomOdds(e.idx, dist), true
}

// roomOdds and summarize accumulate over a distribution in its own order —
// ascending anchor ID — so float addition order is pinned: summaries are
// reproducible run to run and identical across the single and sharded
// engines.

func roomOdds(idx *anchor.Index, dist anchor.Dist) []RoomOdds {
	byRoom := make(map[floorplan.RoomID]float64)
	for i, ap := range dist.IDs {
		byRoom[idx.Anchor(ap).Room] += dist.P[i]
	}
	out := make([]RoomOdds, 0, len(byRoom))
	for room, p := range byRoom {
		out = append(out, RoomOdds{Room: room, P: p})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P > out[j].P
		}
		return out[i].Room < out[j].Room
	})
	return out
}

func (w *world) summarize(obj model.ObjectID, dist anchor.Dist) Localization {
	loc := Localization{Object: obj, Mode: anchor.NoAnchor}
	var mx, my float64
	for i, ap := range dist.IDs {
		a, p := w.idx.Anchor(ap), dist.P[i]
		mx += a.Pos.X * p
		my += a.Pos.Y * p
		if p > loc.ModeProb || (p == loc.ModeProb && ap < loc.Mode) {
			loc.Mode, loc.ModeProb = ap, p
		}
		if p > 0 {
			loc.Entropy -= p * math.Log(p)
		}
	}
	loc.Mean = geom.Pt(mx, my)
	odds := roomOdds(w.idx, dist)
	if len(odds) > 0 {
		loc.Room, loc.RoomProb = odds[0].Room, odds[0].P
	}
	return loc
}
