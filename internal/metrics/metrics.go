// Package metrics implements the paper's evaluation metrics: Kullback-
// Leibler divergence between probabilistic query answers and the ground
// truth (Equation 7), kNN hit rate, and the top-k success rate of inferred
// location distributions.
package metrics

import (
	"math"
	"sort"

	"repro/internal/anchor"
	"repro/internal/model"
)

// DefaultEpsilon is the smoothing constant added to every bin before
// normalizing. Equation 7 is undefined when Q has zero mass where P does
// not; epsilon smoothing is the standard remedy and is applied identically
// to both methods under comparison.
const DefaultEpsilon = 1e-6

// KLDivergence returns D_KL(P || Q) over the union of the two supports,
// with epsilon smoothing and renormalization. P is the ground truth and Q
// the method's answer. The result is >= 0 (within floating-point error) and
// 0 when the distributions agree exactly.
func KLDivergence(p, q model.ResultSet, eps float64) float64 {
	seen := make(map[model.ObjectID]struct{}, len(p)+len(q))
	for o := range p {
		seen[o] = struct{}{}
	}
	for o := range q {
		seen[o] = struct{}{}
	}
	if len(seen) == 0 {
		return 0
	}
	// Sort the support so the floating-point summation order (and thus the
	// result, bit for bit) is deterministic regardless of map layout.
	support := make([]model.ObjectID, 0, len(seen))
	for o := range seen {
		support = append(support, o)
	}
	sort.Slice(support, func(i, j int) bool { return support[i] < support[j] })
	pTotal, qTotal := 0.0, 0.0
	for _, o := range support {
		pTotal += p[o] + eps
		qTotal += q[o] + eps
	}
	d := 0.0
	for _, o := range support {
		pi := (p[o] + eps) / pTotal
		qi := (q[o] + eps) / qTotal
		if pi > 0 {
			d += pi * math.Log(pi/qi)
		}
	}
	if d < 0 {
		return 0 // rounding guard: KL divergence is non-negative
	}
	return d
}

// HitRate returns |returned intersect truth| / |truth|: the fraction of the
// ground-truth result set a method recovered. It returns 1 when the truth is
// empty (nothing to miss).
func HitRate(returned, truth []model.ObjectID) float64 {
	if len(truth) == 0 {
		return 1
	}
	in := make(map[model.ObjectID]bool, len(returned))
	for _, o := range returned {
		in[o] = true
	}
	hits := 0
	for _, o := range truth {
		if in[o] {
			hits++
		}
	}
	return float64(hits) / float64(len(truth))
}

// TopKLocations returns the k anchor points with the highest probability in
// the distribution, ties broken toward lower anchor IDs for determinism.
func TopKLocations(dist map[anchor.ID]float64, k int) []anchor.ID {
	type ap struct {
		id anchor.ID
		p  float64
	}
	all := make([]ap, 0, len(dist))
	for id, p := range dist {
		all = append(all, ap{id: id, p: p})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].p != all[j].p {
			return all[i].p > all[j].p
		}
		return all[i].id < all[j].id
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]anchor.ID, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].id
	}
	return out
}

// TopKSuccess reports whether the true anchor location is among the top-k
// predicted anchor points of the distribution.
func TopKSuccess(dist map[anchor.ID]float64, trueAnchor anchor.ID, k int) bool {
	for _, id := range TopKLocations(dist, k) {
		if id == trueAnchor {
			return true
		}
	}
	return false
}

// SilentLoss returns the number of readings a pipeline lost without
// accounting for them: the readings offered minus those accepted, dropped
// with a counted reason, or still pending in a reorder buffer. A hardened
// ingestion path keeps this at exactly zero under any fault pattern.
func SilentLoss(offered, accepted, dropped, pending int) int {
	return offered - accepted - dropped - pending
}

// Mean returns the arithmetic mean of the values, or NaN when empty.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	total := 0.0
	for _, v := range vs {
		total += v
	}
	return total / float64(len(vs))
}
