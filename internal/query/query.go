// Package query implements the paper's query evaluation module: indoor range
// queries (Algorithm 3) and indoor kNN queries (Algorithm 4) over the
// APtoObjHT anchor-point index, plus the query aware optimization module's
// candidate pruning for both query types.
package query

import (
	"context"
	"math"
	"sort"

	"repro/internal/anchor"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/walkgraph"
)

// Evaluator answers range and kNN queries against an anchor-point table.
type Evaluator struct {
	g   *walkgraph.Graph
	idx *anchor.Index
}

// NewEvaluator builds an Evaluator over a walking graph and its anchor
// index.
func NewEvaluator(g *walkgraph.Graph, idx *anchor.Index) *Evaluator {
	return &Evaluator{g: g, idx: idx}
}

// Range evaluates an indoor range query (the paper's Algorithm 3). Anchor
// points are the 1-D projection of the 2-D indoor space, so the lost
// dimension is compensated per intersected cell: hallway probabilities are
// scaled by the fraction of the hallway width the query covers, and room
// probabilities by the fraction of the room area it covers.
func (e *Evaluator) Range(tab *anchor.Table, q geom.Rect) model.ResultSet {
	rs, _ := e.rangeCtx(nil, tab, q)
	return rs
}

// RangeContext is Range with a per-request deadline: the context is checked
// at every hallway- and room-cell boundary, and on expiry the result
// accumulated so far is returned together with a *DeadlineError. A nil error
// means the result is complete.
func (e *Evaluator) RangeContext(ctx context.Context, tab *anchor.Table, q geom.Rect) (model.ResultSet, error) {
	return e.rangeCtx(ctx, tab, q)
}

// rangeCtx is the shared implementation; a nil ctx skips every check and is
// byte-for-byte the pre-deadline behavior.
func (e *Evaluator) rangeCtx(ctx context.Context, tab *anchor.Table, q geom.Rect) (model.ResultSet, error) {
	resultSet := make(model.ResultSet)
	plan := e.g.Plan()

	// Hallway cells.
	for _, h := range plan.Hallways() {
		if err := expired(ctx, "range/hallways"); err != nil {
			return resultSet, err
		}
		strip := h.Strip()
		overlap := strip.Intersect(q)
		if overlap.Empty() {
			continue
		}
		var ratio, lo, hi float64
		if h.Horizontal() {
			ratio = overlap.Height() / h.Width
			lo, hi = overlap.Min.X, overlap.Max.X
		} else {
			ratio = overlap.Width() / h.Width
			lo, hi = overlap.Min.Y, overlap.Max.Y
		}
		result := make(model.ResultSet)
		for _, a := range e.idx.Anchors() {
			if a.Hallway != h.ID {
				continue
			}
			coord := a.Pos.X
			if !h.Horizontal() {
				coord = a.Pos.Y
			}
			if coord >= lo && coord <= hi {
				for _, po := range tab.Get(a.ID) {
					result[po.Object] += po.P
				}
			}
		}
		result.Scale(ratio)
		resultSet.Add(result)
	}

	// Room cells: the covered fraction of the room's footprint (which may be
	// a composite of several rectangles).
	for _, room := range plan.Rooms() {
		if err := expired(ctx, "range/rooms"); err != nil {
			return resultSet, err
		}
		covered := room.IntersectArea(q)
		if covered <= 0 {
			continue
		}
		ap := e.idx.RoomAnchor(room.ID)
		if ap == anchor.NoAnchor {
			continue
		}
		ratio := covered / room.Area()
		for _, po := range tab.Get(ap) {
			// The conversion rounds the product before the add, as the
			// former scale-then-add did; a fused multiply-add would not.
			resultSet[po.Object] += float64(po.P * ratio)
		}
	}
	return resultSet, nil
}

// KNN evaluates an indoor kNN query (the paper's Algorithm 4): starting from
// the query point (approximated onto the nearest walking-graph edge), anchor
// points are visited in ascending shortest network distance, accumulating
// each anchor's indexed objects, until the total probability of the result
// set reaches k. The result holds at least k objects (probability mass k)
// whenever the table contains that much mass.
func (e *Evaluator) KNN(tab *anchor.Table, q geom.Point, k int) model.ResultSet {
	rs, _ := e.knnCtx(nil, tab, q, k)
	return rs
}

// KNNContext is KNN with a per-request deadline, checked every
// deadlineStride anchors of the distance-ordered scan. On expiry the mass
// accumulated so far (possibly < k) is returned with a *DeadlineError.
func (e *Evaluator) KNNContext(ctx context.Context, tab *anchor.Table, q geom.Point, k int) (model.ResultSet, error) {
	return e.knnCtx(ctx, tab, q, k)
}

func (e *Evaluator) knnCtx(ctx context.Context, tab *anchor.Table, q geom.Point, k int) (model.ResultSet, error) {
	resultSet := make(model.ResultSet)
	if k <= 0 {
		return resultSet, nil
	}
	loc := e.g.NearestLocation(q)
	ids, _ := e.idx.AnchorsByNetworkDistance(loc)
	for i, ap := range ids {
		if i%deadlineStride == 0 {
			if err := expired(ctx, "knn/anchor-scan"); err != nil {
				return resultSet, err
			}
		}
		entry := tab.Get(ap)
		if len(entry) == 0 {
			continue
		}
		for _, po := range entry {
			resultSet[po.Object] += po.P
		}
		if resultSet.TotalProb() >= float64(k) {
			break
		}
	}
	return resultSet, nil
}

// TopKObjects ranks a probabilistic result set by descending probability and
// returns the k most likely objects (ties to lower IDs). It converts the
// paper's probabilistic kNN answer into a concrete set for hit-rate style
// metrics.
func TopKObjects(rs model.ResultSet, k int) []model.ObjectID {
	type op struct {
		o model.ObjectID
		p float64
	}
	all := make([]op, 0, len(rs))
	for o, p := range rs {
		all = append(all, op{o: o, p: p})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].p != all[j].p {
			return all[i].p > all[j].p
		}
		return all[i].o < all[j].o
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]model.ObjectID, k)
	for i := range out {
		out[i] = all[i].o
	}
	return out
}

// ObjectInfo is the pruning-relevant summary of an object: its most recent
// detecting device and when it was last read.
type ObjectInfo struct {
	Object   model.ObjectID
	Reader   model.ReaderID
	LastSeen model.Time
}

// Pruner implements the query aware optimization module: it filters out
// non-candidate objects that cannot appear in any registered query's result.
type Pruner struct {
	g   *walkgraph.Graph
	idx *anchor.Index
	dep *rfid.Deployment
	// umax is the maximum walking speed used to grow uncertain regions.
	umax float64
	// unhealthy flags readers whose last detection may be stale beyond its
	// timestamp (the device went SUSPECT/DEAD after reading the object), so
	// their uncertain regions are widened to keep pruning sound. nil when all
	// readers are healthy.
	unhealthy []bool
	// readers is the static half of the kNN distance pruning, per reader.
	readers []readerAnchors
}

// readerAnchors is what kNN pruning knows about a reader before any query
// arrives: every anchor ordered by Euclidean distance from the device (an
// uncertain region, a circle around the device, therefore contains a prefix
// of this order), and the device's own spot on the walking graph for regions
// too small to contain an anchor.
type readerAnchors struct {
	order  []anchor.ID
	dist   []float64 // dist[i] is the Euclidean distance to order[i], ascending
	center walkgraph.Location
}

// DefaultMaxSpeed is the paper's maximum walking speed umax, in m/s: the
// growth rate of the pruner's uncertain regions (and of the symbolic
// baseline's reachable regions).
const DefaultMaxSpeed = 1.5

// NewPruner builds a Pruner.
func NewPruner(g *walkgraph.Graph, idx *anchor.Index, dep *rfid.Deployment, umax float64) *Pruner {
	p := &Pruner{g: g, idx: idx, dep: dep, umax: umax}
	anchors := idx.Anchors()
	p.readers = make([]readerAnchors, dep.NumReaders())
	for _, r := range dep.Readers() {
		ra := readerAnchors{
			order:  make([]anchor.ID, len(anchors)),
			dist:   make([]float64, len(anchors)),
			center: g.NearestLocation(r.Pos),
		}
		byID := make([]float64, len(anchors))
		for i, a := range anchors {
			ra.order[i] = a.ID
			byID[a.ID] = r.Pos.Dist(a.Pos) // the operand order Circle.Contains uses
		}
		sort.SliceStable(ra.order, func(i, j int) bool { return byID[ra.order[i]] < byID[ra.order[j]] })
		for i, id := range ra.order {
			ra.dist[i] = byID[id]
		}
		p.readers[r.ID] = ra
	}
	return p
}

// SetUnhealthy installs the unhealthy-reader set (indexed by ReaderID; nil or
// all-false restores the uncompensated regions). The caller must not mutate
// the slice afterwards or call this concurrently with candidate generation.
func (p *Pruner) SetUnhealthy(un []bool) {
	any := false
	for _, u := range un {
		if u {
			any = true
			break
		}
	}
	if !any {
		un = nil
	}
	p.unhealthy = un
}

// Unhealthy returns the installed unhealthy-reader set (nil when every reader
// is healthy). The slice is never mutated once installed.
func (p *Pruner) Unhealthy() []bool { return p.unhealthy }

// UncertainRegion returns the Euclidean uncertain region UR(o): a circle
// centered at the object's last detecting device with radius
// umax * (now - lastSeen) + device range.
//
// When the last detecting device is unhealthy the radius gains one extra
// device range: the object may have left the range unnoticed any time after
// the last read (the usual exit event that re-anchors UR never arrived), so
// the region is grown by the largest silent head start the dead range can
// hide. Time-based growth already covers travel after that instant.
func (p *Pruner) UncertainRegion(info ObjectInfo, now model.Time) geom.Circle {
	return p.uncertainRegion(info, now, p.unhealthy)
}

func (p *Pruner) uncertainRegion(info ObjectInfo, now model.Time, unhealthy []bool) geom.Circle {
	r := p.dep.Reader(info.Reader)
	lmax := p.umax * float64(now-info.LastSeen)
	if lmax < 0 {
		lmax = 0
	}
	rad := lmax + r.Range
	if int(info.Reader) < len(unhealthy) && unhealthy[info.Reader] {
		rad += r.Range
	}
	return geom.Circle{C: r.Pos, R: rad}
}

// RangeCandidatesContext returns the objects whose uncertain regions overlap
// at least one of the query windows; all others are non-candidates whose
// filtering cost is saved. The per-request deadline is checked once per
// object. On expiry it fails conservatively: the remaining
// unexamined objects are all admitted as candidates (pruning is an
// optimization; an incomplete prune must never drop a possible answer), and
// the *DeadlineError is returned so the caller can account for the overrun.
//
// The prune is per object — UR(o) against the windows, no bound shared
// between objects — so pruning a subset of the objects gives the full prune
// restricted to that subset. That is what lets each holder of objects prune
// its own; unhealthy is an argument (not the installed set) so a remote
// holder can prune under its coordinator's reader health.
func (p *Pruner) RangeCandidatesContext(ctx context.Context, infos []ObjectInfo, windows []geom.Rect, now model.Time, unhealthy []bool) ([]model.ObjectID, error) {
	var out []model.ObjectID
	for n, info := range infos {
		if err := expired(ctx, "prune/range"); err != nil {
			for _, rest := range infos[n:] {
				out = append(out, rest.Object)
			}
			return out, err
		}
		ur := p.uncertainRegion(info, now, unhealthy)
		for _, w := range windows {
			if ur.OverlapsRect(w) {
				out = append(out, info.Object)
				break
			}
		}
	}
	return out, nil
}

// KNNCandidatesContext implements the paper's distance-based pruning: with
// s_i (l_i) the minimum (maximum) shortest network distance from the query
// point to UR(o_i), and f the k-th smallest l_i, every object with s_i > f
// is pruned — at least k objects are certainly closer. The per-request
// deadline is checked per referenced reader and every deadlineStride objects
// during bound computation. On expiry every object is admitted (the distance
// threshold cannot be established from partial bounds, and pruning must stay
// sound) and the *DeadlineError is returned.
func (p *Pruner) KNNCandidatesContext(ctx context.Context, infos []ObjectInfo, q geom.Point, k int, now model.Time) ([]model.ObjectID, error) {
	if len(infos) == 0 {
		return nil, nil
	}
	admitAll := func(err error) ([]model.ObjectID, error) {
		out := make([]model.ObjectID, len(infos))
		for i := range infos {
			out[i] = infos[i].Object
		}
		return out, err
	}
	loc := p.g.NearestLocation(q)
	nodeDist := p.g.DistancesFromLocation(loc)

	// Query -> anchor network distances, once per anchor. All scratch is
	// per call: concurrent queries share one Pruner.
	anchors := p.idx.Anchors()
	netDist := make([]float64, len(anchors))
	for i := range anchors {
		netDist[i] = p.g.DistToLocation(loc, nodeDist, anchors[i].Loc)
	}

	// Group the objects by last detecting reader (a counting sort; byReader
	// lists positions in infos).
	start := make([]int32, len(p.readers)+1)
	for i := range infos {
		start[infos[i].Reader+1]++
	}
	for r := range p.readers {
		start[r+1] += start[r]
	}
	byReader := make([]int32, len(infos))
	fill := append([]int32(nil), start[:len(p.readers)]...)
	for i := range infos {
		r := infos[i].Reader
		byReader[fill[r]] = int32(i)
		fill[r]++
	}

	// Per referenced reader: the running min and max of the network distance
	// along its Euclidean anchor order, then one binary search per object for
	// how much of that order its region contains. min and max do not depend
	// on visiting order, so s_i and l_i are the bounds the per-object scan
	// over all anchors produced.
	si := make([]float64, len(infos))
	li := make([]float64, len(infos))
	pmin := make([]float64, len(anchors))
	pmax := make([]float64, len(anchors))
	for r := range p.readers {
		objs := byReader[start[r]:start[r+1]]
		if len(objs) == 0 {
			continue
		}
		if err := expired(ctx, "prune/knn"); err != nil {
			return admitAll(err)
		}
		ra := &p.readers[r]
		lo, hi := math.Inf(1), 0.0
		for j, id := range ra.order {
			d := netDist[id]
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
			pmin[j], pmax[j] = lo, hi
		}
		centerDist := math.NaN() // computed on first use
		for n, i := range objs {
			if n%deadlineStride == deadlineStride-1 {
				if err := expired(ctx, "prune/knn"); err != nil {
					return admitAll(err)
				}
			}
			ur := p.UncertainRegion(infos[i], now)
			m := countWithin(ra.dist, ur.R+geom.Eps) // ur.Contains(a.Pos), a prefix
			s, l := math.Inf(1), 0.0
			if m > 0 {
				s, l = pmin[m-1], pmax[m-1]
			}
			if math.IsInf(s, 1) {
				// The region is too small to contain an anchor; bound through
				// the device center instead.
				if math.IsNaN(centerDist) {
					centerDist = p.g.DistToLocation(loc, nodeDist, ra.center)
				}
				s = math.Max(0, centerDist-ur.R)
				l = centerDist + ur.R
			}
			si[i], li[i] = s, l
		}
	}

	f := kthSmallest(li, k)
	var out []model.ObjectID
	for i := range infos {
		if si[i] <= f {
			out = append(out, infos[i].Object)
		}
	}
	return out, nil
}

// countWithin returns how many leading entries of the ascending slice are
// <= limit.
func countWithin(asc []float64, limit float64) int {
	i, j := 0, len(asc)
	for i < j {
		h := int(uint(i+j) >> 1)
		if asc[h] <= limit {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// kthSmallest returns the k-th smallest value of vs (the largest when k
// exceeds len(vs)) without sorting: a max-heap of the k smallest seen, whose
// root is the answer. vs is not modified.
func kthSmallest(vs []float64, k int) float64 {
	if k > len(vs) {
		k = len(vs)
	}
	if k < 1 {
		k = 1
	}
	h := append(make([]float64, 0, k), vs[:k]...)
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && h[c+1] > h[c] {
				c++
			}
			if h[i] >= h[c] {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for _, v := range vs[k:] {
		if v < h[0] {
			h[0] = v
			down(0)
		}
	}
	return h[0]
}
