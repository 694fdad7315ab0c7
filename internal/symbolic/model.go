// Package symbolic implements the symbolic model-based location inference
// baseline (Yang et al. [29, 30] in the paper): an object is assumed to be
// uniformly distributed over all locations it could have reached since its
// last reading, constrained by the maximum walking speed and by the
// deployment-graph cells — it cannot have crossed a partitioning reader's
// activation range without being detected. Directed partitioning pairs halve
// the search space when the crossing direction is known, and presence
// devices bound the object to its current cell, matching the paper's Cases
// 1-4.
package symbolic

import (
	"fmt"
	"sort"

	"repro/internal/anchor"
	"repro/internal/depgraph"
	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/walkgraph"
)

// Sighting summarizes what the collector knows about an object: its most
// recent detecting device, when, and whether the object is inside the range
// right now. Prev is the previous distinct detecting device (NoReader when
// unknown); when (Prev, Reader) form a declared directed partitioning pair,
// the crossing direction is used to halve the search space (the paper's
// Case 3).
type Sighting struct {
	Reader model.ReaderID
	Time   model.Time
	// Current reports whether the object is currently being observed.
	Current bool
	// Prev is the second most recent detecting device, or NoReader.
	Prev model.ReaderID
}

// Model is the symbolic model-based location inference baseline.
type Model struct {
	g    *walkgraph.Graph
	dep  *rfid.Deployment
	idx  *anchor.Index
	umax float64
	dg   *depgraph.Graph
}

// DefaultMaxSpeed is the maximum walking speed umax assumed by the symbolic
// model's reachability constraint, in m/s: the pruner's, so the baseline and
// the particle filter bound an object's travel alike.
const DefaultMaxSpeed = query.DefaultMaxSpeed

// New builds the symbolic model over a walking graph, a reader deployment,
// and the anchor index used to discretize its distributions (sharing the
// anchor support with the particle filter makes the two methods directly
// comparable).
func New(g *walkgraph.Graph, dep *rfid.Deployment, idx *anchor.Index, umax float64) (*Model, error) {
	if umax <= 0 {
		return nil, fmt.Errorf("symbolic: umax must be positive, got %v", umax)
	}
	dg, err := depgraph.Build(g, dep)
	if err != nil {
		return nil, err
	}
	return &Model{g: g, dep: dep, idx: idx, umax: umax, dg: dg}, nil
}

// MustNew is New for known-valid parameters.
func MustNew(g *walkgraph.Graph, dep *rfid.Deployment, idx *anchor.Index, umax float64) *Model {
	m, err := New(g, dep, idx, umax)
	if err != nil {
		panic(err)
	}
	return m
}

// Region returns the locations the object may occupy at time now under the
// symbolic model: the reader's own covered region while detected, otherwise
// everything reachable within umax*(now - lastSeen) of the range boundary
// without crossing any reader.
func (m *Model) Region(s Sighting, now model.Time) Region {
	if s.Current {
		return coveredRegion(m.dg, s.Reader)
	}
	maxDist := m.umax * float64(now-s.Time)
	reg := reachableRegion(m.dg, s.Reader, s.Prev, maxDist)
	if len(reg.Intervals) == 0 {
		// The object left the range this very second; it is on the boundary,
		// which the covered region approximates best.
		return coveredRegion(m.dg, s.Reader)
	}
	return reg
}

// Distribution infers the object's location distribution over anchor points:
// uniform over the region by floor area (hallway intervals weigh
// length x hallway width; a reachable room weighs its full area, at room
// granularity). The result sums to 1.
func (m *Model) Distribution(s Sighting, now model.Time) map[anchor.ID]float64 {
	return m.weights(m.Region(s, now))
}

// weights converts a region into a normalized anchor-point distribution.
func (m *Model) weights(reg Region) map[anchor.ID]float64 {
	plan := m.g.Plan()
	out := make(map[anchor.ID]float64)
	roomSeen := make(map[floorplan.RoomID]bool)
	for _, iv := range reg.Intervals {
		e := m.g.Edge(iv.Edge)
		switch e.Kind {
		case walkgraph.HallwayEdge:
			width := plan.Hallway(e.Hallway).Width
			ids := m.idx.OnEdge(iv.Edge)
			if len(ids) == 0 {
				continue
			}
			step := e.Length / float64(len(ids))
			for i, id := range ids {
				lo, hi := float64(i)*step, float64(i+1)*step
				if iv.Lo > lo {
					lo = iv.Lo
				}
				if iv.Hi < hi {
					hi = iv.Hi
				}
				if hi > lo {
					out[id] += (hi - lo) * width
				}
			}
		case walkgraph.DoorEdge:
			// Reaching past the door means the object may be anywhere in the
			// room (room-granularity resolution).
			if iv.Hi >= e.DoorAt && !roomSeen[e.Room] {
				roomSeen[e.Room] = true
				ap := m.idx.RoomAnchor(e.Room)
				if ap != anchor.NoAnchor {
					out[ap] += plan.Room(e.Room).Area()
				}
			}
		}
	}
	// Normalize, summing in anchor-ID order so the result is bit-for-bit
	// deterministic regardless of map layout.
	ids := make([]anchor.ID, 0, len(out))
	for id := range out {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	total := 0.0
	for _, id := range ids {
		total += out[id]
	}
	if total <= 0 {
		return nil
	}
	for _, id := range ids {
		out[id] /= total
	}
	return out
}

// KNNMaxProbSet computes the symbolic model's kNN answer: the maximum
// probability result set of the probabilistic threshold kNN formulation,
// estimated by Monte Carlo — every trial samples a position for each
// candidate from its distribution, ranks candidates by network distance from
// the query anchor ordering, and the most frequent k-set wins. anchorDist
// must map every anchor to its network distance from the query point
// (e.g. from anchor.Index.AnchorsByNetworkDistance). Candidates with nil
// distributions are skipped. The returned set has at most k objects.
func KNNMaxProbSet(src *rng.Source, k int, dists map[model.ObjectID]map[anchor.ID]float64, anchorDist map[anchor.ID]float64, trials int) []model.ObjectID {
	type objDist struct {
		obj     model.ObjectID
		anchors []anchor.ID
		weights []float64
	}
	var objs []objDist
	for obj, d := range dists {
		if len(d) == 0 {
			continue
		}
		od := objDist{obj: obj}
		for ap := range d {
			od.anchors = append(od.anchors, ap)
		}
		// Deterministic sampling: anchor order must not depend on map
		// iteration order.
		sort.Slice(od.anchors, func(i, j int) bool { return od.anchors[i] < od.anchors[j] })
		od.weights = make([]float64, len(od.anchors))
		for i, ap := range od.anchors {
			od.weights[i] = d[ap]
		}
		objs = append(objs, od)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].obj < objs[j].obj })
	if len(objs) == 0 || k <= 0 {
		return nil
	}
	if k > len(objs) {
		k = len(objs)
	}

	counts := make(map[string]int)
	sets := make(map[string][]model.ObjectID)
	best := ""
	type ranked struct {
		obj model.ObjectID
		d   float64
	}
	rankBuf := make([]ranked, len(objs))
	for trial := 0; trial < trials; trial++ {
		for i, od := range objs {
			ap := od.anchors[src.Categorical(od.weights)]
			rankBuf[i] = ranked{obj: od.obj, d: anchorDist[ap]}
		}
		sort.Slice(rankBuf, func(i, j int) bool {
			if rankBuf[i].d != rankBuf[j].d {
				return rankBuf[i].d < rankBuf[j].d
			}
			return rankBuf[i].obj < rankBuf[j].obj
		})
		ids := make([]model.ObjectID, k)
		for i := 0; i < k; i++ {
			ids[i] = rankBuf[i].obj
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		key := fmt.Sprint(ids)
		counts[key]++
		if _, ok := sets[key]; !ok {
			sets[key] = ids
		}
		if best == "" || counts[key] > counts[best] {
			best = key
		}
	}
	return sets[best]
}
