package anchor

import (
	"sort"

	"repro/internal/model"
)

// Posting is one entry of an anchor point's object list: an object possibly
// located there and its probability.
type Posting struct {
	Object model.ObjectID
	P      float64
}

// Table is the paper's APtoObjHT hash table in flat form: per anchor point,
// the objects possibly located there with their probabilities (a slice
// sorted by object), and the reverse index from an object to its
// distribution over anchor points ([]ObjDist sorted by object). Both sides
// are plain slices; every consumer therefore iterates in a pinned order.
//
// A Table is not safe for concurrent mutation; concurrent reads are fine.
type Table struct {
	objs []ObjDist
	// post is indexed by anchor ID and grown on demand.
	post [][]Posting
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

// TableOf builds the table of a query in one pass over its per-object
// distributions, which must be in ascending object order with no object
// repeated (what shards, peers and the router's merge produce). The table
// takes ownership of the slice; objects with an empty distribution are
// dropped, as Set drops them. Postings are carved out of one backing array,
// each anchor's list filled in object order.
func TableOf(objs []ObjDist) *Table {
	top, total, kept := -1, 0, 0
	for i := range objs {
		ids := objs[i].Dist.IDs
		n := len(ids)
		if n == 0 {
			continue
		}
		total += n
		if last := int(ids[n-1]); last > top {
			top = last
		}
		objs[kept] = objs[i]
		kept++
	}
	objs = objs[:kept]
	t := &Table{objs: objs}
	if total == 0 {
		return t
	}
	counts := make([]int32, top+1)
	for i := range objs {
		for _, ap := range objs[i].Dist.IDs {
			counts[ap]++
		}
	}
	flat := make([]Posting, total)
	t.post = make([][]Posting, top+1)
	off := 0
	for ap, c := range counts {
		// Capped at its own share: a later Set that grows one anchor's list
		// reallocates it instead of overwriting its neighbor.
		t.post[ap] = flat[off : off : off+int(c)]
		off += int(c)
	}
	for i := range objs {
		d := objs[i].Dist
		for j, ap := range d.IDs {
			t.post[ap] = append(t.post[ap], Posting{Object: objs[i].Object, P: d.P[j]})
		}
	}
	return t
}

// find returns the position of obj in t.objs, or where it would be inserted.
func (t *Table) find(obj model.ObjectID) (int, bool) {
	n := len(t.objs)
	if n == 0 || t.objs[n-1].Object < obj {
		return n, false
	}
	i := sort.Search(n, func(i int) bool { return t.objs[i].Object >= obj })
	return i, t.objs[i].Object == obj
}

// Set replaces the object's distribution (an empty one removes the object).
func (t *Table) Set(obj model.ObjectID, d Dist) {
	i, ok := t.find(obj)
	if ok {
		t.unpost(obj, t.objs[i].Dist)
		if d.Len() == 0 {
			t.objs = append(t.objs[:i], t.objs[i+1:]...)
			return
		}
		t.objs[i].Dist = d
	} else {
		if d.Len() == 0 {
			return
		}
		t.objs = append(t.objs, ObjDist{})
		copy(t.objs[i+1:], t.objs[i:])
		t.objs[i] = ObjDist{Object: obj, Dist: d}
	}
	if top := int(d.IDs[len(d.IDs)-1]); top >= len(t.post) {
		t.post = append(t.post, make([][]Posting, top+1-len(t.post))...)
	}
	for j, ap := range d.IDs {
		ps := t.post[ap]
		k := len(ps)
		if k > 0 && ps[k-1].Object > obj {
			k = sort.Search(k, func(k int) bool { return ps[k].Object > obj })
		}
		ps = append(ps, Posting{})
		copy(ps[k+1:], ps[k:])
		ps[k] = Posting{Object: obj, P: d.P[j]}
		t.post[ap] = ps
	}
}

// unpost removes the object's postings at the anchors of d.
func (t *Table) unpost(obj model.ObjectID, d Dist) {
	for _, ap := range d.IDs {
		ps := t.post[ap]
		k := sort.Search(len(ps), func(k int) bool { return ps[k].Object >= obj })
		t.post[ap] = append(ps[:k], ps[k+1:]...)
	}
}

// SetDistribution replaces the object's distribution from its map form.
// Kept for the symbolic baseline and the frozen benchmark harness; the query
// path hands sorted distributions to TableOf or Set.
func (t *Table) SetDistribution(obj model.ObjectID, dist map[ID]float64) {
	t.Set(obj, DistFromMap(dist))
}

// Add accumulates probability p for the object at the anchor point.
func (t *Table) Add(ap ID, obj model.ObjectID, p float64) {
	if p <= 0 {
		return
	}
	old := t.DistributionOf(obj)
	i := sort.Search(len(old.IDs), func(i int) bool { return old.IDs[i] >= ap })
	d := Dist{IDs: make([]ID, 0, len(old.IDs)+1), P: make([]float64, 0, len(old.IDs)+1)}
	d.IDs, d.P = append(d.IDs, old.IDs[:i]...), append(d.P, old.P[:i]...)
	if i < len(old.IDs) && old.IDs[i] == ap {
		d.IDs, d.P = append(d.IDs, ap), append(d.P, old.P[i]+p)
		i++
	} else {
		d.IDs, d.P = append(d.IDs, ap), append(d.P, p)
	}
	d.IDs, d.P = append(d.IDs, old.IDs[i:]...), append(d.P, old.P[i:]...)
	t.Set(obj, d)
}

// RemoveObject deletes every entry for the object.
func (t *Table) RemoveObject(obj model.ObjectID) { t.Set(obj, Dist{}) }

// Get returns the objects indexed at the anchor point with their
// probabilities, in ascending object order. The returned slice is shared;
// callers must not modify it.
func (t *Table) Get(ap ID) []Posting {
	if ap < 0 || int(ap) >= len(t.post) {
		return nil
	}
	return t.post[ap]
}

// DistributionOf returns the object's probability distribution over anchor
// points (the zero Dist for an unknown object).
func (t *Table) DistributionOf(obj model.ObjectID) Dist {
	if i, ok := t.find(obj); ok {
		return t.objs[i].Dist
	}
	return Dist{}
}

// Dists returns every object's distribution in ascending object order. The
// slice is shared; callers must not modify it.
func (t *Table) Dists() []ObjDist { return t.objs }

// Objects returns the IDs of all objects present in the table, ascending.
func (t *Table) Objects() []model.ObjectID {
	out := make([]model.ObjectID, len(t.objs))
	for i := range t.objs {
		out[i] = t.objs[i].Object
	}
	return out
}

// HasObject reports whether the table holds a distribution for the object.
func (t *Table) HasObject(obj model.ObjectID) bool {
	_, ok := t.find(obj)
	return ok
}

// TotalProbOf returns the summed probability mass stored for the object
// (1.0 for a complete distribution, within rounding).
func (t *Table) TotalProbOf(obj model.ObjectID) float64 {
	return t.DistributionOf(obj).Total()
}

// Clear empties the table.
func (t *Table) Clear() { *t = Table{} }

// Len returns the number of anchor points with at least one indexed object.
func (t *Table) Len() int {
	n := 0
	for _, ps := range t.post {
		if len(ps) > 0 {
			n++
		}
	}
	return n
}
