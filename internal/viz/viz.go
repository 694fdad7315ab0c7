// Package viz renders floor plans, reader deployments, and inferred
// location distributions as standalone SVG documents, using only the
// standard library. The output is meant for debugging deployments and for
// illustrating query answers; every drawing call appends to an in-memory
// document that is serialized once at the end.
package viz

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/anchor"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rfid"
)

// Canvas accumulates SVG elements over a floor plan's coordinate system.
// The Y axis is flipped so the plan's north is up.
type Canvas struct {
	bounds geom.Rect
	scale  float64
	body   strings.Builder
}

// NewCanvas creates a canvas covering the plan's bounds at the given scale
// (pixels per meter; 10 is a good default).
func NewCanvas(plan *floorplan.Plan, scale float64) *Canvas {
	if scale <= 0 {
		scale = 10
	}
	return &Canvas{bounds: plan.Bounds().Expand(1), scale: scale}
}

func (c *Canvas) x(v float64) float64 { return (v - c.bounds.Min.X) * c.scale }
func (c *Canvas) y(v float64) float64 { return (c.bounds.Max.Y - v) * c.scale }

// DrawPlan draws hallway strips, room outlines with names, and doors.
func (c *Canvas) DrawPlan(plan *floorplan.Plan) {
	for _, h := range plan.Hallways() {
		s := h.Strip()
		c.rect(s, "#e8e8e8", "none", 0)
	}
	for _, r := range plan.Rooms() {
		for _, part := range r.AllParts() {
			c.rect(part, "#f7f3e8", "#888888", 1)
		}
		ctr := r.Center()
		fmt.Fprintf(&c.body,
			`<text x="%.1f" y="%.1f" font-size="%.1f" text-anchor="middle" fill="#777777">%s</text>`+"\n",
			c.x(ctr.X), c.y(ctr.Y), c.scale*1.2, escape(r.Name))
	}
	for _, d := range plan.Doors() {
		c.circle(d.Pos, 0.3, "#8b5a2b", "none", 0)
	}
	for _, l := range plan.Links() {
		fmt.Fprintf(&c.body,
			`<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#9467bd" stroke-width="2" stroke-dasharray="6,4"/>`+"\n",
			c.x(l.A.X), c.y(l.A.Y), c.x(l.B.X), c.y(l.B.Y))
	}
}

// DrawDeployment draws readers and their activation ranges.
func (c *Canvas) DrawDeployment(dep *rfid.Deployment) {
	for _, r := range dep.Readers() {
		fill := "#1f77b4"
		if r.Kind == rfid.Presence {
			fill = "#2ca02c"
		}
		c.circle(r.Pos, r.Range, "none", fill, 1)
		c.circle(r.Pos, 0.4, fill, "none", 0)
	}
}

// DrawDistribution draws an object's anchor-point distribution as filled
// circles whose radii scale with probability mass, in the given color
// (e.g. "#d62728").
func (c *Canvas) DrawDistribution(idx *anchor.Index, dist anchor.Dist, color string) {
	for i, ap := range dist.IDs {
		p := dist.P[i]
		a := idx.Anchor(ap)
		radius := 0.3 + 1.7*p
		fmt.Fprintf(&c.body,
			`<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s" fill-opacity="0.6"/>`+"\n",
			c.x(a.Pos.X), c.y(a.Pos.Y), radius*c.scale, color)
	}
}

// DrawMarker draws a labelled cross marker (e.g. an object's true position).
func (c *Canvas) DrawMarker(p geom.Point, label, color string) {
	s := 0.6 * c.scale
	x, y := c.x(p.X), c.y(p.Y)
	fmt.Fprintf(&c.body,
		`<path d="M %.1f %.1f L %.1f %.1f M %.1f %.1f L %.1f %.1f" stroke="%s" stroke-width="2"/>`+"\n",
		x-s, y-s, x+s, y+s, x-s, y+s, x+s, y-s, color)
	if label != "" {
		fmt.Fprintf(&c.body,
			`<text x="%.1f" y="%.1f" font-size="%.1f" fill="%s">%s</text>`+"\n",
			x+s+2, y-s, c.scale*1.2, color, escape(label))
	}
}

// DrawObjects draws true object positions from a position map.
func (c *Canvas) DrawObjects(positions map[model.ObjectID]geom.Point, color string) {
	ids := make([]model.ObjectID, 0, len(positions))
	for o := range positions {
		ids = append(ids, o)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, o := range ids {
		c.DrawMarker(positions[o], fmt.Sprintf("o%d", o), color)
	}
}

// SVG serializes the document.
func (c *Canvas) SVG() string {
	w := c.bounds.Width() * c.scale
	h := c.bounds.Height() * c.scale
	var out strings.Builder
	fmt.Fprintf(&out,
		`<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		w, h, w, h)
	out.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	out.WriteString(c.body.String())
	out.WriteString("</svg>\n")
	return out.String()
}

func (c *Canvas) rect(r geom.Rect, fill, stroke string, strokeWidth float64) {
	fmt.Fprintf(&c.body,
		`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="%s" stroke-width="%.1f"/>`+"\n",
		c.x(r.Min.X), c.y(r.Max.Y), r.Width()*c.scale, r.Height()*c.scale, fill, stroke, strokeWidth)
}

func (c *Canvas) circle(p geom.Point, r float64, fill, stroke string, strokeWidth float64) {
	fmt.Fprintf(&c.body,
		`<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s" stroke="%s" stroke-width="%.1f"/>`+"\n",
		c.x(p.X), c.y(p.Y), r*c.scale, fill, stroke, strokeWidth)
}

func escape(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, ">", "&gt;")
	return s
}
