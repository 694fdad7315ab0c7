// Package geom provides the 2-D geometric primitives used throughout the
// indoor query system: points, line segments, axis-aligned rectangles, and
// circles, together with the distance and overlap predicates the floor plan,
// walking graph, and query modules need.
//
// All coordinates are in meters in a single floor's plan coordinate system.
package geom

import (
	"fmt"
	"math"
)

// Eps is the tolerance used for geometric comparisons.
const Eps = 1e-9

// Point is a location on the floor plan, in meters.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Equal reports whether p and q coincide within Eps.
func (p Point) Equal(q Point) bool { return p.Dist(q) <= Eps }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Lerp linearly interpolates from p to q; t=0 gives p, t=1 gives q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{A: a, B: b} }

// Length returns the segment's Euclidean length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// At returns the point at parameter t along the segment; t=0 gives A,
// t=1 gives B. t is not clamped.
func (s Segment) At(t float64) Point { return s.A.Lerp(s.B, t) }

// Midpoint returns the segment midpoint.
func (s Segment) Midpoint() Point { return s.At(0.5) }

// Project returns the parameter t in [0, 1] of the point on the segment
// closest to p. For a degenerate (zero-length) segment it returns 0.
func (s Segment) Project(p Point) float64 {
	d := s.B.Sub(s.A)
	den := d.Dot(d)
	if den <= Eps*Eps {
		return 0
	}
	t := p.Sub(s.A).Dot(d) / den
	return clamp(t, 0, 1)
}

// ClosestPoint returns the point on the segment closest to p.
func (s Segment) ClosestPoint(p Point) Point { return s.At(s.Project(p)) }

// DistToPoint returns the Euclidean distance from p to the segment.
func (s Segment) DistToPoint(p Point) float64 {
	return s.ClosestPoint(p).Dist(p)
}

// Rect is an axis-aligned rectangle with Min at the lower-left corner and
// Max at the upper-right corner.
type Rect struct {
	Min, Max Point
}

// RectFromCorners builds a Rect from any two opposite corners, normalizing
// so that Min <= Max componentwise.
func RectFromCorners(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// RectWH builds a Rect from its lower-left corner and a width and height.
// Negative sizes are normalized away.
func RectWH(x, y, w, h float64) Rect {
	return RectFromCorners(Pt(x, y), Pt(x+w, y+h))
}

// Width returns the rectangle's horizontal extent.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the rectangle's vertical extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the rectangle's area. Degenerate rectangles have area 0.
func (r Rect) Area() float64 {
	w, h := r.Width(), r.Height()
	if w < 0 || h < 0 {
		return 0
	}
	return w * h
}

// Center returns the rectangle's center point.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Empty reports whether the rectangle has no interior (within Eps, so two
// rects that merely share a wall produce an empty intersection even under
// floating-point jitter).
func (r Rect) Empty() bool { return r.Width() <= Eps || r.Height() <= Eps }

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X-Eps && p.X <= r.Max.X+Eps &&
		p.Y >= r.Min.Y-Eps && p.Y <= r.Max.Y+Eps
}

// Intersect returns the overlap of r and o. The result may be empty.
func (r Rect) Intersect(o Rect) Rect {
	return Rect{
		Min: Point{math.Max(r.Min.X, o.Min.X), math.Max(r.Min.Y, o.Min.Y)},
		Max: Point{math.Min(r.Max.X, o.Max.X), math.Min(r.Max.Y, o.Max.Y)},
	}
}

// Overlaps reports whether r and o share interior area.
func (r Rect) Overlaps(o Rect) bool { return !r.Intersect(o).Empty() }

// Union returns the smallest rectangle containing both r and o.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, o.Min.X), math.Min(r.Min.Y, o.Min.Y)},
		Max: Point{math.Max(r.Max.X, o.Max.X), math.Max(r.Max.Y, o.Max.Y)},
	}
}

// Expand returns r grown by d on every side. Negative d shrinks.
func (r Rect) Expand(d float64) Rect {
	return Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
}

// ClosestPoint returns the point of r closest to p (p itself when inside).
func (r Rect) ClosestPoint(p Point) Point {
	return Point{clamp(p.X, r.Min.X, r.Max.X), clamp(p.Y, r.Min.Y, r.Max.Y)}
}

// DistToPoint returns the Euclidean distance from p to r; 0 when inside.
func (r Rect) DistToPoint(p Point) float64 {
	return r.ClosestPoint(p).Dist(p)
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s - %s]", r.Min, r.Max)
}

// Circle is a disk centered at C with radius R.
type Circle struct {
	C Point
	R float64
}

// Contains reports whether p lies inside the circle (boundary inclusive).
func (c Circle) Contains(p Point) bool { return c.C.Dist(p) <= c.R+Eps }

// OverlapsRect reports whether the circle and rectangle share any point.
func (c Circle) OverlapsRect(r Rect) bool {
	return r.DistToPoint(c.C) <= c.R+Eps
}

// OverlapsSegment reports whether the circle intersects the segment.
func (c Circle) OverlapsSegment(s Segment) bool {
	return s.DistToPoint(c.C) <= c.R+Eps
}

// SegmentIntersection returns the parameter interval [t0, t1] of s that lies
// inside the circle, and ok=false when the segment misses the circle. The
// parameters are clamped to [0, 1].
func (c Circle) SegmentIntersection(s Segment) (t0, t1 float64, ok bool) {
	d := s.B.Sub(s.A)
	f := s.A.Sub(c.C)
	a := d.Dot(d)
	if a <= Eps*Eps {
		// Degenerate segment: a point.
		if c.Contains(s.A) {
			return 0, 0, true
		}
		return 0, 0, false
	}
	b := 2 * f.Dot(d)
	cc := f.Dot(f) - c.R*c.R
	disc := b*b - 4*a*cc
	if disc < 0 {
		return 0, 0, false
	}
	sq := math.Sqrt(disc)
	t0 = (-b - sq) / (2 * a)
	t1 = (-b + sq) / (2 * a)
	if t1 < 0 || t0 > 1 {
		return 0, 0, false
	}
	return clamp(t0, 0, 1), clamp(t1, 0, 1), true
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
