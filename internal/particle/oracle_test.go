package particle

import (
	"sort"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/walkgraph"
)

// This file is the oracle the kernel is held to: the paper's Algorithm 2 as
// written, particle by particle over []Particle, answering every coverage
// question with 2-D geometry — circle-covers-point against the detecting
// reader, the activation circle intersected with every edge at each
// initialization (rfid.ComputeInitIntervals), and a covering-reader scan on
// silent seconds. It shares nothing with the kernel beyond Config, the graph
// and the deployment. TestIndexedFilterMatchesGeometricBitForBit holds the
// kernel's output to it bit for bit.

// oracle runs Algorithm 2 for one configuration. unhealthy is the
// negative-update exclusion set (Filter.SetUnhealthy's argument).
type oracle struct {
	cfg       Config
	g         *walkgraph.Graph
	dep       *rfid.Deployment
	unhealthy []bool
}

// run is RunPool: initialize at the first entry's reader, then advance over
// every later entry.
func (o *oracle) run(src *rng.Source, obj model.ObjectID, entries []model.AggregatedReading, now model.Time) (*State, RunStats, error) {
	if len(entries) == 0 {
		return nil, RunStats{}, errNoReadings(obj)
	}
	first := entries[0]
	st := &State{Object: obj, Time: first.Time, LastReadingTime: first.Time,
		Particles: o.initParticles(src, first.Reader)}
	rs := o.advance(src, st, entries[1:], now, false)
	return st, rs, nil
}

// advance steps st second by second to min(td + coast, now), where td is the
// newest reading time, reweighting and resampling at every detected second.
// With skipStale set, entries at or before st.Time are ignored (the
// AdvancePool contract); run passes every entry through. The returned
// RunStats carry everything but the stage durations.
func (o *oracle) advance(src *rng.Source, st *State, entries []model.AggregatedReading, now model.Time, skipStale bool) RunStats {
	byTime := make(map[model.Time]model.ReaderID, len(entries))
	td := st.LastReadingTime
	for _, e := range entries {
		if skipStale && e.Time <= st.Time {
			continue
		}
		if e.Detected() {
			byTime[e.Time] = e.Reader
			if e.Time > td {
				td = e.Time
			}
		}
	}
	tmin := td + model.Time(o.cfg.MaxCoastSeconds)
	if now < tmin {
		tmin = now
	}
	rs := RunStats{From: st.Time}
	for tj := st.Time + 1; tj <= tmin; tj++ {
		for i := range st.Particles {
			o.step(src, &st.Particles[i])
		}
		rs.Steps++
		reader, detected := byTime[tj]
		if !detected {
			if o.cfg.UseNegativeInfo {
				o.negativeUpdate(src, st)
			}
			continue
		}
		rs.Detections++
		if !o.reweight(st.Particles, reader) {
			// Kidnapped-robot recovery: reinitialize in the reader's range.
			st.Particles = o.initParticles(src, reader)
			continue
		}
		normalizeParticles(st.Particles)
		st.Particles = o.resample(src, st.Particles)
		o.roughen(src, st.Particles)
		rs.Resamples++
	}
	if tmin > st.Time {
		st.Time = tmin
	}
	st.LastReadingTime = td
	rs.To = st.Time
	rs.ESS = essOf(st.Particles)
	return rs
}

// initParticles samples Ns particles uniformly over the reader's activation
// intervals, each with a random heading and a Gaussian walking speed.
func (o *oracle) initParticles(src *rng.Source, reader model.ReaderID) []Particle {
	r := o.dep.Reader(reader)
	ivs, total := rfid.ComputeInitIntervals(o.g, r)
	ps := make([]Particle, o.cfg.Ns)
	w := 1.0 / float64(len(ps))
	for i := range ps {
		var loc walkgraph.Location
		if total > 0 {
			u := src.Uniform(0, total)
			j := sort.Search(len(ivs), func(k int) bool { return ivs[k].CumStart > u }) - 1
			iv := ivs[j]
			loc = walkgraph.Location{Edge: iv.Edge, Offset: iv.Lo + (u - iv.CumStart)}
		} else {
			loc = o.g.NearestLocation(r.Pos)
		}
		e := o.g.Edge(loc.Edge)
		toward := e.A
		if src.Bool(0.5) {
			toward = e.B
		}
		ps[i] = Particle{
			Loc:    loc,
			Toward: toward,
			Speed:  src.TruncGaussian(o.cfg.SpeedMean, o.cfg.SpeedStd, o.cfg.MinSpeed, o.cfg.MaxSpeed),
			Weight: w,
		}
	}
	return ps
}

// step advances one particle by one second under the object motion model.
func (o *oracle) step(src *rng.Source, p *Particle) {
	g := o.g
	if p.Resting {
		if !src.Bool(o.cfg.RoomExitProb) {
			return
		}
		// Leave the room: head down one of its door edges.
		p.Resting = false
		node := roomNodeOf(g, p.Loc)
		edges := g.IncidentEdges(node)
		next := edges[src.Intn(len(edges))]
		p.Loc = locationAtNode(g, next, node)
		p.Toward = g.OtherEnd(next, node)
	}
	remaining := p.Speed
	for remaining > 0 {
		e := g.Edge(p.Loc.Edge)
		var toNode float64
		if p.Toward == e.B {
			toNode = e.Length - p.Loc.Offset
		} else {
			toNode = p.Loc.Offset
		}
		if remaining < toNode {
			if p.Toward == e.B {
				p.Loc.Offset += remaining
			} else {
				p.Loc.Offset -= remaining
			}
			return
		}
		remaining -= toNode
		node := p.Toward
		if g.Node(node).Kind == walkgraph.RoomCenter {
			// Walked through a door into the room: rest there until the exit
			// coin flip succeeds on a later second.
			p.Loc = locationAtNode(g, p.Loc.Edge, node)
			p.Resting = true
			return
		}
		next := chooseNextEdge(src, g, node, p.Loc.Edge)
		p.Loc = locationAtNode(g, next, node)
		p.Toward = g.OtherEnd(next, node)
	}
}

// chooseNextEdge picks a uniformly random incident edge at the node,
// excluding the edge just traversed unless the node is a dead end.
func chooseNextEdge(src *rng.Source, g *walkgraph.Graph, node walkgraph.NodeID, from walkgraph.EdgeID) walkgraph.EdgeID {
	edges := g.IncidentEdges(node)
	if len(edges) == 1 {
		return edges[0]
	}
	n := 0
	pick := from
	for _, e := range edges {
		if e == from {
			continue
		}
		n++
		if src.Intn(n) == 0 {
			pick = e
		}
	}
	return pick
}

// locationAtNode returns the Location on edge e that coincides with node n.
func locationAtNode(g *walkgraph.Graph, e walkgraph.EdgeID, n walkgraph.NodeID) walkgraph.Location {
	edge := g.Edge(e)
	if edge.A == n {
		return walkgraph.Location{Edge: e, Offset: 0}
	}
	return walkgraph.Location{Edge: e, Offset: edge.Length}
}

// roomNodeOf returns the RoomCenter endpoint of the door edge a resting
// particle sits on.
func roomNodeOf(g *walkgraph.Graph, loc walkgraph.Location) walkgraph.NodeID {
	e := g.Edge(loc.Edge)
	if g.Node(e.B).Kind == walkgraph.RoomCenter {
		return e.B
	}
	return e.A
}

// reweight applies the device sensing model: particles inside the detecting
// reader's activation range, outside every room and stairwell, get
// HighWeight; the rest LowWeight. It reports whether any particle was
// consistent with the observation.
func (o *oracle) reweight(ps []Particle, reader model.ReaderID) bool {
	any := false
	r := o.dep.Reader(reader)
	for i := range ps {
		if r.Covers(o.g.Point(ps[i].Loc)) &&
			o.g.RoomAt(ps[i].Loc) == floorplan.NoRoom &&
			o.g.Edge(ps[i].Loc.Edge).Kind != walkgraph.LinkEdge {
			ps[i].Weight = o.cfg.HighWeight
			any = true
		} else {
			ps[i].Weight = o.cfg.LowWeight
		}
	}
	return any
}

// negativeUpdate multiplies the weights of particles inside a healthy
// reader's range (outside rooms and stairwells) by NegativeWeight and
// resamples only when the effective sample size drops below Ns/2.
func (o *oracle) negativeUpdate(src *rng.Source, st *State) {
	ps := st.Particles
	inside := 0
	for i := range ps {
		if o.g.Edge(ps[i].Loc.Edge).Kind == walkgraph.LinkEdge {
			continue
		}
		_, covered := coveringReaderExcept(o.dep, o.g.Point(ps[i].Loc), o.unhealthy)
		if covered && o.g.RoomAt(ps[i].Loc) == floorplan.NoRoom {
			ps[i].Weight *= o.cfg.NegativeWeight
			inside++
		}
	}
	if inside == 0 {
		return
	}
	normalizeParticles(ps)
	if essParticles(ps) < float64(len(ps))/2 {
		st.Particles = o.resample(src, st.Particles)
		o.roughen(src, st.Particles)
	}
}

// coveringReaderExcept returns the reader whose activation range covers p,
// nearest first, among readers whose skip flag is false (nil skips none).
func coveringReaderExcept(d *rfid.Deployment, p geom.Point, skip []bool) (model.ReaderID, bool) {
	best := model.NoReader
	bestDist := 0.0
	for _, r := range d.Readers() {
		if skip != nil && skip[r.ID] {
			continue
		}
		dist := r.Pos.Dist(p)
		if dist <= r.Range && (best == model.NoReader || dist < bestDist) {
			best, bestDist = r.ID, dist
		}
	}
	return best, best != model.NoReader
}

// roughen perturbs every speed with small truncated-Gaussian noise.
func (o *oracle) roughen(src *rng.Source, ps []Particle) {
	if o.cfg.SpeedJitter <= 0 {
		return
	}
	for i := range ps {
		ps[i].Speed = src.TruncGaussian(ps[i].Speed, o.cfg.SpeedJitter, o.cfg.MinSpeed, o.cfg.MaxSpeed)
	}
}

// resample returns Ns particles drawn by the configured algorithm from ps,
// whose weights must be normalized; every output weight is 1/Ns.
func (o *oracle) resample(src *rng.Source, ps []Particle) []Particle {
	if o.cfg.Resample == Multinomial {
		return multinomial(src, ps)
	}
	return systematic(src, ps)
}

// systematic is Algorithm 1: one uniform start u1 in [0, 1/Ns] and Ns equally
// spaced probes u_j = u1 + (j-1)/Ns through the weight CDF, accumulated on
// the fly.
func systematic(src *rng.Source, ps []Particle) []Particle {
	ns := len(ps)
	if ns == 0 {
		return nil
	}
	out := make([]Particle, ns)
	inv := 1.0 / float64(ns)
	u1 := src.Uniform(0, inv)
	// For power-of-two counts 1/ns is exact and float64(j)*inv is the
	// correctly rounded quotient float64(j)/float64(ns).
	pow2 := ns&(ns-1) == 0
	i := 0
	cum := ps[0].Weight
	for j := 0; j < ns; j++ {
		var u float64
		if pow2 {
			u = u1 + float64(j)*inv
		} else {
			u = u1 + float64(j)/float64(ns)
		}
		// The last bucket absorbs any rounding shortfall in the weight sum.
		for i < ns-1 && u > cum {
			i++
			cum += ps[i].Weight
		}
		out[j] = ps[i]
		out[j].Weight = inv
	}
	return out
}

// multinomial draws each output particle independently in proportion to the
// weights.
func multinomial(src *rng.Source, ps []Particle) []Particle {
	ns := len(ps)
	if ns == 0 {
		return nil
	}
	weights := make([]float64, ns)
	for i := range ps {
		weights[i] = ps[i].Weight
	}
	out := make([]Particle, ns)
	for j := 0; j < ns; j++ {
		out[j] = ps[src.Categorical(weights)]
		out[j].Weight = 1.0 / float64(ns)
	}
	return out
}

// normalizeParticles scales weights to sum to one (uniform when all zero).
func normalizeParticles(ps []Particle) {
	total := 0.0
	for i := range ps {
		total += ps[i].Weight
	}
	if total <= 0 {
		u := 1.0 / float64(len(ps))
		for i := range ps {
			ps[i].Weight = u
		}
		return
	}
	for i := range ps {
		ps[i].Weight /= total
	}
}

// essParticles is 1 / sum(w^2) for normalized weights.
func essParticles(ps []Particle) float64 {
	sq := 0.0
	for i := range ps {
		sq += ps[i].Weight * ps[i].Weight
	}
	if sq == 0 {
		return 0
	}
	return 1 / sq
}
