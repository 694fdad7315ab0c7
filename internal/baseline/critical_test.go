package baseline

import (
	"testing"

	"repro/internal/depgraph"
	"repro/internal/geom"
)

func TestCriticalDevicesForWindow(t *testing.T) {
	sys := testSystem(t, 5, 30, 81)
	dg := depgraph.MustBuild(sys.Graph(), sys.Deployment())
	// A window over the west end of the south hallway: its critical devices
	// must include the readers bounding that stretch but not readers on the
	// far side of the building.
	win := geom.RectWH(2, 11, 12, 2)
	crit := criticalDevices(dg, win)
	if len(crit) == 0 {
		t.Fatal("no critical devices for a hallway window")
	}
	if len(crit) == sys.Deployment().NumReaders() {
		t.Fatal("every reader critical: no pruning value")
	}
	// Far-side readers (on the north hallway's middle) are not critical.
	for _, r := range sys.Deployment().Readers() {
		if crit[r.ID] {
			// Critical readers must be near the window's cells: within a
			// cell-diameter-ish distance of the window.
			if r.Pos.Dist(geom.Pt(8, 12)) > 40 {
				t.Errorf("implausibly distant critical reader at %v", r.Pos)
			}
		}
	}
}

func TestCriticalDevicesRoomWindow(t *testing.T) {
	sys := testSystem(t, 5, 30, 82)
	dg := depgraph.MustBuild(sys.Graph(), sys.Deployment())
	// A window entirely inside room S1: critical devices are the ones
	// bounding the cell its door opens into.
	room := sys.Graph().Plan().Room(0)
	crit := criticalDevices(dg, room.Bounds)
	if len(crit) == 0 {
		t.Fatal("room window has no critical devices")
	}
}
