package viz

import (
	"strings"
	"testing"

	"repro/internal/anchor"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/walkgraph"
)

func TestCanvasProducesWellFormedSVG(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	g := walkgraph.MustBuild(plan)
	idx := anchor.MustBuildIndex(g, 1.0)

	c := NewCanvas(plan, 10)
	c.DrawPlan(plan)
	c.DrawDeployment(dep)
	c.DrawDistribution(idx, anchor.DistFromMap(map[anchor.ID]float64{
		idx.RoomAnchor(0): 0.7,
		anchor.ID(5):      0.3,
	}), "#d62728")
	c.DrawMarker(geom.Pt(35, 12), "truth", "#2ca02c")
	c.DrawObjects(map[model.ObjectID]geom.Point{1: geom.Pt(5, 12)}, "#333333")

	svg := c.SVG()
	for _, want := range []string{
		"<svg xmlns=", "</svg>",
		"<rect", "<circle", "<text", "<path",
		"S1",    // a room label
		"truth", // the marker label
		"o1",    // the object label
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Balanced document: one opening and one closing svg tag.
	if strings.Count(svg, "<svg") != 1 || strings.Count(svg, "</svg>") != 1 {
		t.Error("unbalanced svg tags")
	}
}

func TestCanvasEscapesLabels(t *testing.T) {
	b := floorplan.NewBuilder()
	h := b.AddHallway("h", geom.Seg(geom.Pt(0, 10), geom.Pt(20, 10)), 2)
	b.AddRoom("A<&>B", geom.RectWH(4, 3, 6, 6), h)
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCanvas(plan, 10)
	c.DrawPlan(plan)
	svg := c.SVG()
	if strings.Contains(svg, "A<&>B") {
		t.Error("unescaped label in SVG")
	}
	if !strings.Contains(svg, "A&lt;&amp;&gt;B") {
		t.Error("escaped label missing")
	}
}

func TestCanvasLinksDashed(t *testing.T) {
	plan := floorplan.TwoStoryOffice()
	c := NewCanvas(plan, 8)
	c.DrawPlan(plan)
	if got := strings.Count(c.SVG(), "stroke-dasharray"); got != 2 {
		t.Errorf("dashed link lines = %d, want 2", got)
	}
}

func TestCanvasDefaultScale(t *testing.T) {
	plan := floorplan.DefaultOffice()
	c := NewCanvas(plan, 0)
	if c.scale != 10 {
		t.Errorf("default scale = %v", c.scale)
	}
}

func TestDistributionRadiiScaleWithMass(t *testing.T) {
	plan := floorplan.DefaultOffice()
	g := walkgraph.MustBuild(plan)
	idx := anchor.MustBuildIndex(g, 1.0)
	c := NewCanvas(plan, 10)
	c.DrawDistribution(idx, anchor.DistFromMap(map[anchor.ID]float64{0: 1.0}), "#d62728")
	big := c.SVG()
	c2 := NewCanvas(plan, 10)
	c2.DrawDistribution(idx, anchor.DistFromMap(map[anchor.ID]float64{0: 0.01}), "#d62728")
	small := c2.SVG()
	if big == small {
		t.Error("distribution mass does not affect rendering")
	}
	// Zero mass draws nothing.
	c3 := NewCanvas(plan, 10)
	c3.DrawDistribution(idx, anchor.DistFromMap(map[anchor.ID]float64{0: 0}), "#d62728")
	if strings.Contains(c3.SVG(), "fill-opacity") {
		t.Error("zero-mass anchor rendered")
	}
}
