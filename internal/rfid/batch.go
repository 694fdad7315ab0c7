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
// predicate answered here is the one the filter's reweight needs —
// "consistent with a detection by reader r" — including the structural
// exclusions (rooms and stairwells are shielded from readers) and the
// guard-fringe fallback to exact geometry, so the results are bit-for-bit
// those of the per-particle 2-D geometry. The negative update's predicate,
// "consistent with silence", is the per-health-set table of silence.go;
// both are built from the CSR span table below.

// flatSpans is the CSR layout of the span table: edge e's coverage spans
// are spans[start[e]:start[e+1]], ascending by reader ID within each edge.
// The flat layout replaces the per-edge span lists with one contiguous
// array for the exact scans to stream through.
//
// The flat copy bakes the structural exclusions of the predicates into the
// span bounds themselves: spans on stairwell links are dropped, and every
// upper bound is clamped below the edge's room boundary (DoorAt), so a
// per-particle test checks one interval instead of re-deriving edge kind
// and room membership. A test against these bounds clamps the offset to
// [0, Length] first, as Graph.Point clamps it; the tables built from them
// fold that clamp into the bounds instead (foldBounds).
type flatSpans struct {
	start []int32
	spans []CoverSpan
}

// buildFlat builds the CSR span table from the per-edge span lists.
func (c *Coverage) buildFlat() *flatSpans {
	f := &flatSpans{start: make([]int32, len(c.edges)+1)}
	total := 0
	for _, spans := range c.edges {
		total += len(spans)
	}
	f.spans = make([]CoverSpan, 0, total)
	for e, spans := range c.edges {
		f.start[e] = int32(len(f.spans))
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
			f.spans = append(f.spans, s)
		}
	}
	f.start[len(c.edges)] = int32(len(f.spans))
	return f
}

// readerRow is one (reader, edge) entry of the reweight table: the
// reader's inner and outer interval on the edge as raw-offset bounds (see
// foldBounds), both empty when the reader's range misses the edge or the
// edge is a stairwell link. There is at most one span per (edge, reader)
// pair — a circle's coverage of a segment is one interval — so a row
// holds it whole.
type readerRow struct {
	inLo, inHi, outLo, outHi float64
}

// buildByReader inverts the flat span table into one row per (reader,
// edge), the table BatchDetectableBy reads.
func (c *Coverage) buildByReader() [][]readerRow {
	by := make([][]readerRow, len(c.rds))
	for r := range by {
		rows := make([]readerRow, len(c.edges))
		for e := range rows {
			rows[e] = readerRow{math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)}
		}
		by[r] = rows
	}
	for e := range c.edges {
		length := c.et.Length[e]
		for _, s := range c.flat.spans[c.flat.start[e]:c.flat.start[e+1]] {
			row := &by[s.Reader][e]
			row.inLo, row.inHi = foldBounds(s.InnerLo, s.InnerHi, length)
			row.outLo, row.outHi = foldBounds(s.OuterLo, s.OuterHi, length)
		}
	}
	return by
}

// BatchDetectableBy fills out[i] with whether a particle on edge[i] at
// offset off[i] is consistent with a detection by reader id: inside the
// reader's activation range, outside every room, and not on a stairwell
// link. It is the batched form of the reweight predicate, bit-for-bit
// identical to the geometric predicate: an offset inside the inner
// interval is covered, one outside the outer interval is not, and the
// CoverageGuard-wide fringe between them falls back to exact geometry. All
// slices must have equal length.
func (c *Coverage) BatchDetectableBy(id model.ReaderID, edge []int32, off []float64, out []bool) {
	rows := c.byReader[id]
	r := &c.dep.readers[id]
	off = off[:len(edge)]
	out = out[:len(edge)]
	for i, e := range edge {
		o := off[i]
		row := &rows[e]
		// The interval tests compile branch-free (see bit): whether a
		// particle sits inside the range is close to a coin flip in a
		// converged cloud, so data branches here would mispredict
		// constantly.
		in := bit(o >= row.inLo) & bit(o <= row.inHi)
		out[i] = in != 0
		if bit(o >= row.outLo)&bit(o <= row.outHi)&^in != 0 {
			// Guard fringe: fall back to exact geometry (rare by
			// construction — the fringe is CoverageGuard wide).
			out[i] = r.Covers(c.g.Point(walkgraph.Location{Edge: walkgraph.EdgeID(e), Offset: o}))
		}
	}
}
