package rfid

import (
	"math"

	"repro/internal/model"
	"repro/internal/walkgraph"
)

// This file is the batch entry point of the edge-coverage index: the SoA
// particle kernel hands over whole particle batches as flat (edge, offset)
// arrays and receives the detectability predicate per particle, instead of
// asking one coverage question per particle through a method call. The
// predicates answered here are exactly the ones the filter's reweight and
// negative-update loops need — "consistent with a detection by reader r"
// and "consistent with silence" — including the structural exclusions
// (rooms and stairwells are shielded from readers) and the guard-fringe
// fallback to exact geometry, so the results are bit-for-bit those of the
// per-particle 2-D geometry.

// FlatSpans is the CSR layout of the span table: edge e's coverage spans are
// Spans[Start[e]:Start[e+1]], ascending by reader ID within each edge. The
// flat layout replaces the per-edge span lists with one contiguous array,
// which is what lets the batch scans below stream through memory.
//
// The flat copy bakes the structural exclusions of the predicates into the
// span bounds themselves: spans on stairwell links are dropped, and every
// upper bound is clamped below the edge's room boundary (DoorAt), so the
// per-particle loop tests one interval instead of re-deriving edge kind and
// room membership. Offsets are clamped to [0, Length] before the interval
// test, as Graph.Point clamps them, and the clamped value only ever feeds
// comparisons, so the fold changes no observable result.
//
// ByReader additionally inverts the table for the single-reader predicate:
// ByReader[r][e] is the index into Spans of reader r's span on edge e, or -1.
// There is at most one span per (edge, reader) pair — a circle's coverage of
// a segment is one interval — so the batched reweight resolves its span with
// one load instead of scanning the edge's span list for the reader.
type FlatSpans struct {
	Start    []int32
	Spans    []CoverSpan
	ByReader [][]int32
}

// FlatSpans returns the CSR span table, building it on first use (callers
// construct the Coverage once per system; the engine calls this at build
// time, so the lazy build is never concurrent). The result is shared and
// must not be modified.
func (c *Coverage) FlatSpans() *FlatSpans {
	if c.flat == nil {
		f := &FlatSpans{Start: make([]int32, len(c.edges)+1)}
		total := 0
		for _, spans := range c.edges {
			total += len(spans)
		}
		f.Spans = make([]CoverSpan, 0, total)
		for e, spans := range c.edges {
			f.Start[e] = int32(len(f.Spans))
			if c.et.Kind[e] == walkgraph.LinkEdge {
				continue // stairwell links are never detectable
			}
			// Room interiors are never detectable: offsets at or beyond
			// DoorAt are out, so the largest admissible clamped offset is
			// the predecessor of DoorAt (DoorAt is +Inf on doorless edges).
			doorHi := math.Nextafter(c.et.DoorAt[e], math.Inf(-1))
			for _, s := range spans {
				if s.OuterHi > doorHi {
					s.OuterHi = doorHi
				}
				if s.InnerHi > doorHi {
					s.InnerHi = doorHi
				}
				f.Spans = append(f.Spans, s)
			}
		}
		f.Start[len(c.edges)] = int32(len(f.Spans))
		f.ByReader = make([][]int32, len(c.rds))
		for r := range f.ByReader {
			row := make([]int32, len(c.edges))
			for e := range row {
				row[e] = -1
			}
			f.ByReader[r] = row
		}
		for e := 0; e < len(c.edges); e++ {
			for si := f.Start[e]; si < f.Start[e+1]; si++ {
				f.ByReader[f.Spans[si].Reader][e] = si
			}
		}
		c.flat = f
	}
	return c.flat
}

// BatchDetectableBy fills out[i] with whether a particle on edge[i] at
// offset off[i] is consistent with a detection by reader id: inside the
// reader's activation range, outside every room, and not on a stairwell
// link. It is the batched form of the reweight predicate, bit-for-bit
// identical to the geometric predicate (inner interval certain, fringe falls
// back to exact geometry). All slices must have equal length.
func (c *Coverage) BatchDetectableBy(id model.ReaderID, edge []int32, off []float64, out []bool) {
	fs := c.FlatSpans()
	byEdge := fs.ByReader[id]
	spans := fs.Spans
	length := c.et.Length
	r := &c.dep.readers[id]
	off = off[:len(edge)]
	out = out[:len(edge)]
	for i, e := range edge {
		o := off[i]
		out[i] = false
		si := byEdge[e]
		if si < 0 {
			continue
		}
		// The clamp and the interval tests compile branch-free (min/max and
		// SETcc composition): whether a particle sits inside the span is
		// close to a coin flip in a converged cloud, so data branches here
		// would mispredict constantly. The clamped value is only ever
		// compared, never used in arithmetic, so min/max zero-sign
		// differences from a branchy clamp cannot leak into the output.
		co := min(max(o, 0), length[e])
		s := &spans[si]
		outer := co >= s.OuterLo && co <= s.OuterHi
		inner := outer && co >= s.InnerLo && co <= s.InnerHi
		out[i] = inner
		if outer && !inner {
			// Guard fringe: fall back to exact geometry (rare by
			// construction — the fringe is CoverageGuard wide).
			out[i] = r.Covers(c.g.Point(walkgraph.Location{Edge: walkgraph.EdgeID(e), Offset: o}))
		}
	}
}

// BatchDetectableAny fills out[i] with whether a particle on edge[i] at
// offset off[i] sits inside the activation range of any healthy reader —
// the batched negative-observation predicate. Readers flagged in un are
// excluded (a dead reader's silence says nothing); un may be nil. Rooms and
// stairwell links are never detectable. Bit-for-bit identical to the
// geometric predicate. All slices must have equal length.
func (c *Coverage) BatchDetectableAny(edge []int32, off []float64, un []bool, out []bool) {
	fs := c.FlatSpans()
	start, spans := fs.Start, fs.Spans
	length := c.et.Length
	off = off[:len(edge)]
	out = out[:len(edge)]
	for i, e := range edge {
		o := off[i]
		out[i] = false
		co := min(max(o, 0), length[e])
		for si := start[e]; si < start[e+1]; si++ {
			s := &spans[si]
			if un != nil && un[s.Reader] {
				continue
			}
			if co < s.OuterLo || co > s.OuterHi {
				continue
			}
			if (co >= s.InnerLo && co <= s.InnerHi) ||
				c.dep.readers[s.Reader].Covers(c.g.Point(walkgraph.Location{Edge: walkgraph.EdgeID(e), Offset: o})) {
				out[i] = true
				break
			}
		}
	}
}
