package query

import (
	"sort"

	"repro/internal/anchor"
	"repro/internal/model"
)

// This file implements the closest-pairs query the paper lists as future
// work (Section 6): find the k pairs of objects with the smallest expected
// shortest network distance under their anchor-point distributions.

// Pair is one closest-pairs result: two objects and the expected shortest
// network distance between them.
type Pair struct {
	A, B model.ObjectID
	Dist float64
}

// ClosestPairs returns the k object pairs with the smallest expected network
// distance E[d(A,B)] = sum_a sum_b pA(a) pB(b) d(a,b) over their anchor
// distributions. Results are sorted by ascending distance (ties by IDs).
// Anchor-to-anchor distances are computed once per distinct source anchor
// via single-source Dijkstra and memoized inside the call.
func (e *Evaluator) ClosestPairs(tab *anchor.Table, k int) []Pair {
	objs := tab.Dists()
	if k <= 0 || len(objs) < 2 {
		return nil
	}

	// Memoized network distances from each needed anchor to all anchors.
	distFrom := make(map[anchor.ID][]float64)
	anchorDists := func(from anchor.ID) []float64 {
		if d, ok := distFrom[from]; ok {
			return d
		}
		loc := e.idx.Anchor(from).Loc
		nd := e.g.DistancesFromLocation(loc)
		d := make([]float64, e.idx.NumAnchors())
		for _, a := range e.idx.Anchors() {
			d[a.ID] = e.g.DistToLocation(loc, nd, a.Loc)
		}
		distFrom[from] = d
		return d
	}

	// Both distributions are walked in ascending anchor order, so a pair's
	// expected distance is the same sum in the same order on every call.
	var pairs []Pair
	for i := range objs {
		distA := objs[i].Dist
		for j := i + 1; j < len(objs); j++ {
			distB := objs[j].Dist
			expected := 0.0
			for ia, a := range distA.IDs {
				da, pa := anchorDists(a), distA.P[ia]
				for ib, b := range distB.IDs {
					expected += pa * distB.P[ib] * da[b]
				}
			}
			pairs = append(pairs, Pair{A: objs[i].Object, B: objs[j].Object, Dist: expected})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Dist != pairs[j].Dist {
			return pairs[i].Dist < pairs[j].Dist
		}
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	if k > len(pairs) {
		k = len(pairs)
	}
	return pairs[:k]
}
