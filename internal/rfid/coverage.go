package rfid

import (
	"math"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/walkgraph"
)

// This file implements the edge-coverage index: a deployment-build-time
// precomputation that turns the particle filter's per-particle 2-D geometry
// (circle-covers-point, any-reader-covers-point, circle-edge intersections)
// into 1-D interval lookups on walking-graph edges.
//
// Particles live on graph edges with scalar offsets, so for every
// (edge, reader) pair the set of covered offsets is a single interval — the
// distance from a fixed point to a point moving along a segment is convex in
// the offset. The index stores that interval twice, conservatively:
//
//   - an *outer* interval guaranteed to contain every covered offset, and
//   - an *inner* interval guaranteed to contain only covered offsets.
//
// The two differ by CoverageGuard at each end. Offsets inside the inner
// interval are covered for certain; offsets outside the outer interval are
// uncovered for certain; offsets in the fringe between them (a few
// millimeters per boundary, hit with probability ~1e-5 per test) fall back
// to the exact geometric predicate. The indexed answers are therefore
// bit-for-bit identical to the geometric ones — the determinism contract the
// engine's Config.Workers documentation promises — while the common case
// costs two float compares instead of a hypot.
//
// For Filter.InitAt the index stores, per reader, the exact activation
// intervals ComputeInitIntervals computes (same expressions, same edge
// order, same floats) together with their cumulative lengths, so
// initialization sampling is a search over a few intervals instead of
// re-intersecting the activation circle with every edge of the graph.

// CoverageGuard is the half-width, in meters, of the fringe around computed
// interval endpoints inside which coverage queries fall back to the exact
// geometric test. It is chosen orders of magnitude above the worst-case
// float error of the quadratic root computation (~1e-5 m near tangency) and
// orders of magnitude below any anchor spacing, so fallbacks are both safe
// and rare.
const CoverageGuard = 1e-3

// InitInterval is one edge interval of a reader's activation range, as used
// by particle initialization: offsets [Lo, Hi] on Edge are inside the range
// (door edges already clipped to their hallway side), and CumStart is the
// summed length of all preceding intervals, so a uniform draw u over the
// total length maps to the interval with the greatest CumStart <= u.
type InitInterval struct {
	Edge     walkgraph.EdgeID
	Lo, Hi   float64
	CumStart float64
}

// ComputeInitIntervals returns the activation intervals of one reader in
// graph-edge order — the activation circle intersected with every edge, door
// edges clipped to their hallway side, stairwell links dropped — plus their
// total length. The coverage index calls this once per reader at build time;
// the particle filter's geometric test oracle calls it per initialization.
func ComputeInitIntervals(g *walkgraph.Graph, r Reader) ([]InitInterval, float64) {
	circle := r.Circle()
	var ivs []InitInterval
	total := 0.0
	for _, e := range g.Edges() {
		t0, t1, ok := circle.SegmentIntersection(g.EdgeSegment(e.ID))
		if !ok {
			continue
		}
		lo, hi := t0*e.Length, t1*e.Length
		// A detected object cannot be inside a room (walls block reads), so
		// only the hallway-side portion of a door edge can hold particles.
		// Link edges (stairwells) are not physical space at all.
		if e.Kind == walkgraph.LinkEdge {
			continue
		}
		if e.Kind == walkgraph.DoorEdge && hi > e.DoorAt {
			hi = e.DoorAt
		}
		if hi-lo <= 0 {
			continue
		}
		ivs = append(ivs, InitInterval{Edge: e.ID, Lo: lo, Hi: hi, CumStart: total})
		total += hi - lo
	}
	return ivs, total
}

// CoverSpan is the coverage interval of one reader on one edge, in offset
// meters from endpoint A. Inner is the certain subset, outer the certain
// superset; InnerLo > InnerHi encodes an empty inner interval (the whole
// span is fringe). Offsets in [OuterLo, InnerLo) or (InnerHi, OuterHi] must
// fall back to the exact geometric predicate
// Deployment.Reader(Reader).Covers(point).
type CoverSpan struct {
	Reader           model.ReaderID
	OuterLo, OuterHi float64
	InnerLo, InnerHi float64
}

// readerCoverage is the reverse map for one reader.
type readerCoverage struct {
	init      []InitInterval
	initTotal float64
}

// Coverage is the precomputed edge-coverage index over one (graph,
// deployment) pair. It is immutable after BuildCoverage and safe for
// concurrent readers. Memory cost is O(E + S + I) where S is the number of
// (edge, reader) pairs whose circle touches the edge and I the number of
// activation intervals — for the paper's deployment (19 readers, ~300
// edges) a few kilobytes.
type Coverage struct {
	g   *walkgraph.Graph
	dep *Deployment
	et  *walkgraph.EdgeTable
	// edges[e] lists the readers whose activation circles touch edge e,
	// ascending by reader ID.
	edges [][]CoverSpan
	rds   []readerCoverage
	// flat is the lazily built CSR form of edges (see FlatSpans).
	flat *FlatSpans
}

// BuildCoverage precomputes the coverage index for a deployment on a
// walking graph. Call it once at system-construction time.
func BuildCoverage(g *walkgraph.Graph, d *Deployment) *Coverage {
	c := &Coverage{
		g:     g,
		dep:   d,
		et:    g.EdgeTable(),
		edges: make([][]CoverSpan, g.NumEdges()),
		rds:   make([]readerCoverage, d.NumReaders()),
	}
	for _, r := range d.Readers() {
		for _, e := range g.Edges() {
			if sp, ok := spanOf(g.EdgeSegment(e.ID), r.Circle(), e.Length); ok {
				sp.Reader = r.ID
				c.edges[e.ID] = append(c.edges[e.ID], sp)
			}
		}
		ivs, total := ComputeInitIntervals(g, r)
		c.rds[r.ID] = readerCoverage{init: ivs, initTotal: total}
	}
	c.FlatSpans() // build eagerly so the index is immutable once returned
	return c
}

// Graph returns the walking graph the index was built on.
func (c *Coverage) Graph() *walkgraph.Graph { return c.g }

// Deployment returns the reader deployment the index was built on.
func (c *Coverage) Deployment() *Deployment { return c.dep }

// spanOf computes the conservative coverage span of a circle on an edge of
// the given length, solving the circle/line quadratic with unclamped roots
// (unlike geom.Circle.SegmentIntersection, whose clamping would hide
// coverage that starts before the edge). ok is false when no offset on the
// edge can possibly be covered.
func spanOf(seg geom.Segment, circle geom.Circle, length float64) (CoverSpan, bool) {
	d := seg.B.Sub(seg.A)
	a := d.Dot(d)
	if a <= geom.Eps*geom.Eps {
		// Degenerate segment (cannot occur for validated graphs); treat the
		// whole edge as fringe so queries fall back to geometry.
		if seg.A.Dist(circle.C) <= circle.R+CoverageGuard {
			return CoverSpan{OuterLo: 0, OuterHi: length, InnerLo: 1, InnerHi: 0}, true
		}
		return CoverSpan{}, false
	}
	f := seg.A.Sub(circle.C)
	b := 2 * f.Dot(d)
	cc := f.Dot(f) - circle.R*circle.R
	disc := b*b - 4*a*cc
	if disc < 0 {
		// No crossing in float arithmetic. The circle may still graze the
		// edge within float error: check the closest approach and, when it
		// is within the guard of the radius, record a fringe-only span.
		tc := -b / (2 * a)
		if tc < 0 {
			tc = 0
		} else if tc > 1 {
			tc = 1
		}
		if circle.C.Dist(seg.At(tc)) > circle.R+CoverageGuard {
			return CoverSpan{}, false
		}
		oc := tc * length
		return CoverSpan{
			OuterLo: math.Max(0, oc-CoverageGuard),
			OuterHi: math.Min(length, oc+CoverageGuard),
			InnerLo: 1, InnerHi: 0, // empty inner: always fall back
		}, true
	}
	sq := math.Sqrt(disc)
	lo := (-b - sq) / (2 * a) * length
	hi := (-b + sq) / (2 * a) * length
	if hi < -CoverageGuard || lo > length+CoverageGuard {
		return CoverSpan{}, false
	}
	return CoverSpan{
		OuterLo: math.Max(0, lo-CoverageGuard),
		OuterHi: math.Min(length, hi+CoverageGuard),
		InnerLo: math.Max(0, lo+CoverageGuard),
		InnerHi: math.Min(length, hi-CoverageGuard),
	}, true
}

// InitIntervals returns the precomputed activation intervals of a reader
// (identical to ComputeInitIntervals's result) and their total length. The
// slice must not be modified.
func (c *Coverage) InitIntervals(id model.ReaderID) ([]InitInterval, float64) {
	rc := &c.rds[id]
	return rc.init, rc.initTotal
}
