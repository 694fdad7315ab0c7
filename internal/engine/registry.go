package engine

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/query"
)

// The paper's system answers *registered* queries: the query aware
// optimization module prunes objects against the set of currently registered
// windows and kNN points, and the evaluation module refreshes all of their
// results from one preprocessing pass. This file implements that registry on
// top of the continuous monitors.

// QueryID identifies a registered query.
type QueryID int

// EventKind classifies registered-query result changes.
type EventKind int

const (
	// Entered: an object joined a range query's result set.
	Entered EventKind = iota
	// Left: an object left a range query's result set.
	Left
	// Added: an object joined a kNN query's top-k set.
	Added
	// Removed: an object left a kNN query's top-k set.
	Removed
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case Entered:
		return "entered"
	case Left:
		return "left"
	case Added:
		return "added"
	case Removed:
		return "removed"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// QueryEvent is one result-set change of a registered query.
type QueryEvent struct {
	Query  QueryID
	Kind   EventKind
	Object model.ObjectID
	Time   model.Time
}

// String implements fmt.Stringer.
func (e QueryEvent) String() string {
	return fmt.Sprintf("q%d: o%d %s (t=%d)", e.Query, e.Object, e.Kind, e.Time)
}

type registeredRange struct {
	id       QueryID
	window   geom.Rect
	monitor  *query.ContinuousRange
	critical map[model.ReaderID]bool
	// evaluated marks that the monitor has a baseline result.
	evaluated bool
}

type registeredKNN struct {
	id      QueryID
	q       geom.Point
	k       int
	monitor *query.ContinuousKNN
}

// Registry tracks registered continuous queries for a System.
type Registry struct {
	sys    *System
	nextID QueryID
	ranges []*registeredRange
	knns   []*registeredKNN
	// eventDriven enables the critical-device optimization: range queries
	// whose critical devices saw no ENTER/LEAVE events since the last
	// evaluation are skipped. Exact under the symbolic cell model; a
	// heuristic under particle filter inference (see critical.go).
	eventDriven bool
	eventSeq    int
}

// NewRegistry creates an empty query registry over a system.
func NewRegistry(sys *System) *Registry { return &Registry{sys: sys} }

// SetEventDriven toggles the critical-device optimization.
func (r *Registry) SetEventDriven(v bool) { r.eventDriven = v }

// RegisterRange registers a continuous range query; objects whose membership
// probability crosses threshold produce Entered/Left events.
func (r *Registry) RegisterRange(window geom.Rect, threshold float64) QueryID {
	id := r.nextID
	r.nextID++
	r.ranges = append(r.ranges, &registeredRange{
		id:       id,
		window:   window,
		monitor:  query.NewContinuousRange(window, threshold),
		critical: criticalDevices(r.sys.DeploymentGraph(), window),
	})
	return id
}

// RegisterKNN registers a continuous kNN query; top-k set changes produce
// Added/Removed events.
func (r *Registry) RegisterKNN(q geom.Point, k int) QueryID {
	id := r.nextID
	r.nextID++
	r.knns = append(r.knns, &registeredKNN{
		id:      id,
		q:       q,
		k:       k,
		monitor: query.NewContinuousKNN(q, k),
	})
	return id
}

// Deregister removes a query. It reports whether the ID existed.
func (r *Registry) Deregister(id QueryID) bool {
	for i, rr := range r.ranges {
		if rr.id == id {
			r.ranges = append(r.ranges[:i], r.ranges[i+1:]...)
			return true
		}
	}
	for i, rk := range r.knns {
		if rk.id == id {
			r.knns = append(r.knns[:i], r.knns[i+1:]...)
			return true
		}
	}
	return false
}

// Len returns the number of registered queries.
func (r *Registry) Len() int { return len(r.ranges) + len(r.knns) }

// Result returns the current result membership of a registered query.
func (r *Registry) Result(id QueryID) []model.ObjectID {
	for _, rr := range r.ranges {
		if rr.id == id {
			return rr.monitor.Result()
		}
	}
	for _, rk := range r.knns {
		if rk.id == id {
			return rk.monitor.Result()
		}
	}
	return nil
}

// Evaluate refreshes every registered query from a single preprocessing pass
// over the union of their candidate objects (the paper's query aware
// optimization across all registered queries) and returns the result-set
// changes since the previous evaluation.
func (r *Registry) Evaluate() []QueryEvent {
	if r.Len() == 0 {
		return nil
	}
	s := r.sys
	now := s.col.Now()
	infos := s.ObjectInfos()

	// Decide which range queries actually need a refresh.
	needRange := make(map[QueryID]bool, len(r.ranges))
	events, next, truncated := s.EventsSince(r.eventSeq)
	r.eventSeq = next
	for _, rr := range r.ranges {
		if !r.eventDriven || !rr.evaluated || truncated {
			needRange[rr.id] = true
			continue
		}
		for _, ev := range events {
			if rr.critical[ev.Reader] {
				needRange[rr.id] = true
				break
			}
		}
	}

	// Union the candidates over all registered queries.
	candidateSet := make(map[model.ObjectID]bool)
	if s.cfg.UsePruning {
		windows := make([]geom.Rect, 0, len(r.ranges))
		for _, rr := range r.ranges {
			if !needRange[rr.id] {
				continue
			}
			windows = append(windows, rr.window)
		}
		if len(windows) > 0 {
			for _, o := range s.pruner.RangeCandidates(infos, windows, now) {
				candidateSet[o] = true
			}
		}
		for _, rk := range r.knns {
			for _, o := range s.pruner.KNNCandidates(infos, rk.q, rk.k, now) {
				candidateSet[o] = true
			}
		}
	} else {
		for _, info := range infos {
			candidateSet[info.Object] = true
		}
	}
	candidates := make([]model.ObjectID, 0, len(candidateSet))
	for o := range candidateSet {
		candidates = append(candidates, o)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })

	tab := s.Preprocess(candidates)

	var out []QueryEvent
	for _, rr := range r.ranges {
		if !needRange[rr.id] {
			continue
		}
		rr.evaluated = true
		entered, left := rr.monitor.Update(s.RangeQueryOn(tab, rr.window))
		for _, o := range entered {
			out = append(out, QueryEvent{Query: rr.id, Kind: Entered, Object: o, Time: now})
		}
		for _, o := range left {
			out = append(out, QueryEvent{Query: rr.id, Kind: Left, Object: o, Time: now})
		}
	}
	for _, rk := range r.knns {
		added, removed := rk.monitor.Update(s.KNNQueryOn(tab, rk.q, rk.k))
		for _, o := range added {
			out = append(out, QueryEvent{Query: rk.id, Kind: Added, Object: o, Time: now})
		}
		for _, o := range removed {
			out = append(out, QueryEvent{Query: rk.id, Kind: Removed, Object: o, Time: now})
		}
	}
	return out
}
