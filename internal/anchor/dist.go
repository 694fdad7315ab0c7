package anchor

import (
	"slices"

	"repro/internal/model"
)

// Dist is one object's sparse probability distribution over anchor points:
// parallel slices sorted by ascending anchor ID, holding only anchors with
// positive mass. It is the one distribution type of the query path — the
// snap produces it, shards and peers return it, the table indexes it and
// every summary (occupancy, localization, PTkNN, closest pairs) reads it —
// and its sorted order is what pins their float accumulation order.
//
// A Dist is immutable once built: only Accumulator.Dist and the cluster wire
// decoder write its slices, both before handing it out, and no reader writes
// them. Its slices may therefore be shared freely — a particle state's
// memoized snap is the very Dist a query's table indexes, and the next
// query's table, and a peer's encoder.
type Dist struct {
	IDs []ID
	P   []float64
}

// Len returns the size of the distribution's support.
func (d Dist) Len() int { return len(d.IDs) }

// Total returns the summed mass in ascending anchor order (1.0 for a
// complete distribution, within rounding).
func (d Dist) Total() float64 {
	total := 0.0
	for _, p := range d.P {
		total += p
	}
	return total
}

// Map converts the distribution to the map form older surfaces expose.
func (d Dist) Map() map[ID]float64 {
	if len(d.IDs) == 0 {
		return nil
	}
	m := make(map[ID]float64, len(d.IDs))
	for i, ap := range d.IDs {
		m[ap] = d.P[i]
	}
	return m
}

// DistFromMap converts a map-form distribution, dropping non-positive
// entries (the table never indexed them).
func DistFromMap(m map[ID]float64) Dist {
	d := Dist{IDs: make([]ID, 0, len(m)), P: make([]float64, 0, len(m))}
	for ap, p := range m {
		if p > 0 {
			d.IDs = append(d.IDs, ap)
		}
	}
	slices.Sort(d.IDs)
	for _, ap := range d.IDs {
		d.P = append(d.P, m[ap])
	}
	return d
}

// ObjDist pairs an object with its distribution. Shards, peers and the
// router exchange []ObjDist in ascending object order.
type ObjDist struct {
	Object model.ObjectID
	Dist   Dist
}

// Accumulator is the snap's scratch: a dense mass array indexed by anchor ID
// plus the list of anchors touched so far. Masses are added in call order —
// for a particle set, particle order — so each anchor's sum is reproducible.
// One worker owns one Accumulator; the zero value is ready to use.
type Accumulator struct {
	mass    []float64
	touched []ID
}

// Add accumulates mass w at the anchor point. Non-positive masses and
// NoAnchor are dropped.
func (a *Accumulator) Add(ap ID, w float64) {
	if w <= 0 || ap < 0 {
		return
	}
	if int(ap) >= len(a.mass) {
		a.mass = append(a.mass, make([]float64, int(ap)+1-len(a.mass))...)
	}
	if a.mass[ap] == 0 {
		a.touched = append(a.touched, ap)
	}
	a.mass[ap] += w
}

// Dist returns the accumulated distribution sorted by anchor ID and resets
// the accumulator for the next object.
func (a *Accumulator) Dist() Dist {
	slices.Sort(a.touched)
	d := Dist{IDs: make([]ID, len(a.touched)), P: make([]float64, len(a.touched))}
	for i, ap := range a.touched {
		d.IDs[i] = ap
		d.P[i] = a.mass[ap]
		a.mass[ap] = 0
	}
	a.touched = a.touched[:0]
	return d
}
