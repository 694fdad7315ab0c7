// Package baseline holds what the paper's evaluation runs beside the query
// engine but the engine's queries never need: the symbolic model (SM)
// baseline of Section 5. It is built over an *engine.System's public
// surface, so a server that only answers queries links neither it nor the
// symbolic and deployment-graph packages it rests on.
package baseline

import (
	"repro/internal/anchor"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/symbolic"
)

// SM answers range and kNN queries with the symbolic model baseline over a
// System's collector state, for side-by-side comparison with the particle
// filter. Unlike the System it is not safe for concurrent use.
type SM struct {
	sys    *engine.System
	model  *symbolic.Model
	src    *rng.Source
	trials int
}

// New builds the symbolic baseline over sys: the same walking graph, reader
// deployment, anchor support and maximum speed, and a Monte Carlo stream of
// its own seeded with the System's Seed.
func New(sys *engine.System) (*SM, error) {
	cfg := sys.Config()
	m, err := symbolic.New(sys.Graph(), sys.Deployment(), sys.AnchorIndex(), cfg.MaxSpeed)
	if err != nil {
		return nil, err
	}
	return &SM{sys: sys, model: m, src: rng.New(cfg.Seed), trials: cfg.SMTrials}, nil
}

// MustNew is New for a known-valid System.
func MustNew(sys *engine.System) *SM {
	b, err := New(sys)
	if err != nil {
		panic(err)
	}
	return b
}

// distributions runs the symbolic inference for every candidate the
// collector has a sighting of.
func (b *SM) distributions(candidates []model.ObjectID) map[model.ObjectID]map[anchor.ID]float64 {
	col, now := b.sys.Collector(), b.sys.Now()
	dists := make(map[model.ObjectID]map[anchor.ID]float64, len(candidates))
	for _, obj := range candidates {
		last, ok := col.LastReading(obj)
		if !ok {
			continue
		}
		prev, _ := col.RecentDevices(obj)
		dists[obj] = b.model.Distribution(symbolic.Sighting{
			Reader:  last.Reader,
			Time:    last.Time,
			Current: col.CurrentlyDetectedBy(obj) != model.NoReader,
			Prev:    prev,
		}, now)
	}
	return dists
}

// Preprocess builds the symbolic baseline's anchor-point table for the
// candidates.
func (b *SM) Preprocess(candidates []model.ObjectID) *anchor.Table {
	tab := anchor.NewTable()
	for obj, dist := range b.distributions(candidates) {
		tab.SetDistribution(obj, dist) // the table keeps object order itself
	}
	return tab
}

// RangeQuery answers a range query with the symbolic model baseline.
func (b *SM) RangeQuery(window geom.Rect) model.ResultSet {
	tab := b.Preprocess(b.sys.RangeCandidates([]geom.Rect{window}))
	return b.sys.Evaluator().Range(tab, window)
}

// KNNQuery answers a kNN query with the symbolic model baseline: the
// maximum probability result set of the probabilistic threshold kNN
// formulation, estimated by Monte Carlo.
func (b *SM) KNNQuery(q geom.Point, k int) []model.ObjectID {
	return b.knnFromDists(b.distributions(b.sys.KNNCandidates(q, k)), q, k)
}

// KNNQueryOn answers a kNN query with the symbolic baseline against an
// existing SM table (for batched workloads that run Preprocess once for many
// query points).
func (b *SM) KNNQueryOn(tab *anchor.Table, q geom.Point, k int) []model.ObjectID {
	dists := make(map[model.ObjectID]map[anchor.ID]float64)
	for _, od := range tab.Dists() {
		dists[od.Object] = od.Dist.Map()
	}
	return b.knnFromDists(dists, q, k)
}

func (b *SM) knnFromDists(dists map[model.ObjectID]map[anchor.ID]float64, q geom.Point, k int) []model.ObjectID {
	loc := b.sys.Graph().NearestLocation(q)
	ids, ds := b.sys.AnchorIndex().AnchorsByNetworkDistance(loc)
	anchorDist := make(map[anchor.ID]float64, len(ids))
	for i, id := range ids {
		anchorDist[id] = ds[i]
	}
	return symbolic.KNNMaxProbSet(b.src, k, dists, anchorDist, b.trials)
}
