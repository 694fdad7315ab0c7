package rfid

import (
	"math"

	"repro/internal/walkgraph"
)

// This file is the negative-observation predicate of the edge-coverage
// index: "is a particle at this location consistent with silence?", asked
// once per particle on every silent second the filter steps. Silent seconds
// are the kernel's most frequent step, so the predicate is a table lookup:
// per edge, the healthy readers' certain (inner) and possible (outer)
// coverage intervals, with the room and stairwell exclusions and the
// clamping of offsets to the edge already folded into the bounds, so the
// common case is a few branch-free compares per particle.

// silenceSlots is how many healthy spans one edge's row holds. The paper's
// deployment puts at most two readers' ranges on any edge; an edge with
// more healthy spans is marked for the exact scan instead.
const silenceSlots = 2

// silenceRow is one edge's entry: slot k holds the inner and outer interval
// of the edge's k-th healthy span, as raw-offset bounds (see foldBounds).
// An unused slot, and an empty inner interval, is the empty interval
// (+Inf, -Inf). An edge whose healthy spans do not fit has empty inner
// slots and the whole line as its outer interval, so every offset on it
// takes the exact scan.
type silenceRow struct {
	inLo, inHi   [silenceSlots]float64
	outLo, outHi [silenceSlots]float64
}

// within is 1 when o lies in either of the two intervals [lo[k], hi[k]]
// and 0 otherwise. The compares combine without branches: in a converged
// cloud whether a particle sits inside a range is close to a coin flip, so
// data branches would mispredict constantly.
func within(o float64, lo, hi *[silenceSlots]float64) uint8 {
	return bit(o >= lo[0])&bit(o <= hi[0]) | bit(o >= lo[1])&bit(o <= hi[1])
}

// bit is 1 for true and 0 for false; the compiler materializes the flag
// (SETcc) instead of branching, which && and || would not.
func bit(b bool) uint8 {
	var k uint8
	if b {
		k = 1
	}
	return k
}

// SilenceTable answers the negative-update predicate for one reader-health
// set: a particle is detectable when it sits inside the activation range of
// a healthy reader, outside every room and off every stairwell link. The
// answers are bit-for-bit those of the 2-D geometry. A table is immutable
// and safe for concurrent readers; Coverage.Silence returns the one for a
// given set.
type SilenceTable struct {
	cov  *Coverage
	rows []silenceRow
	// start/spans are the CSR span table restricted to healthy readers:
	// what the exact scan walks for a fringe offset or an overfull row.
	start []int32
	spans []CoverSpan
}

// Silence returns the silence table for the reader-health set un (indexed
// by ReaderID; true marks a reader whose silence carries no information,
// so its range is left out). With un nil or all false it returns the
// all-healthy table BuildCoverage built; any other set gets a table built
// on the call, which the caller keeps for as long as the set holds.
func (c *Coverage) Silence(un []bool) *SilenceTable {
	for _, u := range un {
		if u {
			return c.buildSilence(un)
		}
	}
	return c.silent
}

// buildSilence builds the table for un (nil: every reader healthy).
func (c *Coverage) buildSilence(un []bool) *SilenceTable {
	fs := c.flat
	t := &SilenceTable{cov: c, rows: make([]silenceRow, len(c.edges))}
	if un == nil {
		t.start, t.spans = fs.start, fs.spans
	} else {
		t.start = make([]int32, len(c.edges)+1)
		for e := range c.edges {
			t.start[e] = int32(len(t.spans))
			for _, s := range fs.spans[fs.start[e]:fs.start[e+1]] {
				if !un[s.Reader] {
					t.spans = append(t.spans, s)
				}
			}
		}
		t.start[len(c.edges)] = int32(len(t.spans))
	}
	empty := [silenceSlots]float64{}
	for k := range empty {
		empty[k] = math.Inf(1)
	}
	for e := range t.rows {
		r := &t.rows[e]
		r.inLo, r.outLo = empty, empty
		for k := range r.inHi {
			r.inHi[k], r.outHi[k] = math.Inf(-1), math.Inf(-1)
		}
		spans := t.spans[t.start[e]:t.start[e+1]]
		if len(spans) > silenceSlots {
			r.outLo[0], r.outHi[0] = math.Inf(-1), math.Inf(1)
			continue
		}
		length := c.et.Length[e]
		for k, s := range spans {
			r.inLo[k], r.inHi[k] = foldBounds(s.InnerLo, s.InnerHi, length)
			r.outLo[k], r.outHi[k] = foldBounds(s.OuterLo, s.OuterHi, length)
		}
	}
	return t
}

// foldBounds rewrites the interval [lo, hi] of offsets clamped to
// [0, length] as the same set of raw offsets, so the lookup needs no clamp:
// a bound at or past an edge end opens to infinity on that side, because
// every raw offset beyond the end clamps onto it. An interval no clamped
// offset can reach becomes the empty (+Inf, -Inf).
func foldBounds(lo, hi, length float64) (float64, float64) {
	if lo > hi || lo > length || hi < 0 {
		return math.Inf(1), math.Inf(-1)
	}
	if lo <= 0 {
		lo = math.Inf(-1)
	}
	if hi >= length {
		hi = math.Inf(1)
	}
	return lo, hi
}

// Detectable fills out[i] with whether a particle on edge[i] at offset
// off[i] sits inside the activation range of a healthy reader, outside
// every room and off every stairwell link: the batched negative-update
// predicate. An offset inside an inner interval is covered and one outside
// every outer interval is not; the rest — the CoverageGuard-wide fringes
// and the edges with more healthy spans than a row holds — take the exact
// scan. All slices must have equal length.
func (t *SilenceTable) Detectable(edge []int32, off []float64, out []bool) {
	rows := t.rows
	off = off[:len(edge)]
	out = out[:len(edge)]
	for i, e := range edge {
		o := off[i]
		r := &rows[e]
		in := within(o, &r.inLo, &r.inHi)
		out[i] = in != 0
		if within(o, &r.outLo, &r.outHi)&^in != 0 {
			out[i] = t.scan(e, o)
		}
	}
}

// scan is the exact predicate for one particle: the healthy spans of edge
// e, each outer interval a certain superset of its reader's coverage, each
// inner interval a certain subset, and the 2-D geometry for an offset in
// between.
func (t *SilenceTable) scan(e int32, o float64) bool {
	c := t.cov
	co := clampOffset(o, c.et.Length[e])
	for _, s := range t.spans[t.start[e]:t.start[e+1]] {
		if co < s.OuterLo || co > s.OuterHi {
			continue
		}
		if (co >= s.InnerLo && co <= s.InnerHi) ||
			c.dep.readers[s.Reader].Covers(c.g.Point(walkgraph.Location{Edge: walkgraph.EdgeID(e), Offset: o})) {
			return true
		}
	}
	return false
}

// clampOffset clamps o to [0, length] as Graph.Point does. The result only
// ever feeds comparisons, so a negative zero left in place cannot change an
// answer.
func clampOffset(o, length float64) float64 {
	if o < 0 {
		o = 0
	}
	if o > length {
		o = length
	}
	return o
}
