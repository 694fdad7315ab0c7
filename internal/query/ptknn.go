package query

import (
	"sort"

	"repro/internal/anchor"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rng"
)

// This file implements the Indoor Probabilistic Threshold kNN Query the
// paper formally cites from Yang et al. [30]: find the objects whose
// probability of belonging to the kNN result set exceeds a threshold T.
// Membership probabilities are estimated by Monte Carlo over the objects'
// anchor-point distributions: each trial samples one position per object,
// ranks them by network distance from the query point, and tallies per-
// object top-k membership.

// PTKNNResult is one PTkNN answer entry: an object and its estimated
// probability of being among the k nearest neighbors.
type PTKNNResult struct {
	Object model.ObjectID
	P      float64
}

// PTKNN evaluates a probabilistic threshold kNN query over a table of
// object distributions: it returns every object whose kNN-membership
// probability is at least threshold, sorted by descending probability
// (ties to lower IDs). trials controls the Monte Carlo precision.
func (e *Evaluator) PTKNN(src *rng.Source, tab *anchor.Table, q geom.Point, k int, threshold float64, trials int) []PTKNNResult {
	probs := e.KNNMembership(src, tab, q, k, trials)
	out := make([]PTKNNResult, 0, len(probs))
	for obj, p := range probs {
		if p >= threshold {
			out = append(out, PTKNNResult{Object: obj, P: p})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P > out[j].P
		}
		return out[i].Object < out[j].Object
	})
	return out
}

// KNNMembership estimates, for every object in the table, the probability
// that it belongs to the kNN result set of q.
func (e *Evaluator) KNNMembership(src *rng.Source, tab *anchor.Table, q geom.Point, k int, trials int) map[model.ObjectID]float64 {
	// Objects in ascending order, each distribution in ascending anchor
	// order: the sampling below consumes the source deterministically.
	flat := tab.Dists()
	if len(flat) == 0 || k <= 0 || trials <= 0 {
		return nil
	}
	if k > len(flat) {
		k = len(flat)
	}

	// Anchor distances from the query point, computed once.
	loc := e.g.NearestLocation(q)
	ids, ds := e.idx.AnchorsByNetworkDistance(loc)
	anchorDist := make([]float64, e.idx.NumAnchors())
	for i, id := range ids {
		anchorDist[id] = ds[i]
	}

	hits := make(map[model.ObjectID]int, len(flat))
	type ranked struct {
		obj model.ObjectID
		d   float64
	}
	buf := make([]ranked, len(flat))
	for trial := 0; trial < trials; trial++ {
		for i, od := range flat {
			ap := od.Dist.IDs[src.Categorical(od.Dist.P)]
			buf[i] = ranked{obj: od.Object, d: anchorDist[ap]}
		}
		sort.Slice(buf, func(i, j int) bool {
			if buf[i].d != buf[j].d {
				return buf[i].d < buf[j].d
			}
			return buf[i].obj < buf[j].obj
		})
		limit := k
		if limit > len(buf) {
			limit = len(buf)
		}
		for i := 0; i < limit; i++ {
			hits[buf[i].obj]++
		}
	}
	probs := make(map[model.ObjectID]float64, len(hits))
	for obj, n := range hits {
		probs[obj] = float64(n) / float64(trials)
	}
	return probs
}
