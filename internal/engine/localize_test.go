package engine

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/metrics"
)

// localizeAll localizes every known object, ascending.
func localizeAll(sys *System) []Localization {
	var out []Localization
	for _, o := range sys.KnownObjects() {
		if l, ok := sys.Localize(o); ok {
			out = append(out, l)
		}
	}
	return out
}

func TestLocalizeProducesSaneSummaries(t *testing.T) {
	sys, world := testSystem(t, 20, 200, 21)
	locs := localizeAll(sys)
	if len(locs) == 0 {
		t.Fatal("nothing localized")
	}
	bounds := sys.Graph().Plan().Bounds().Expand(1)
	var errs []float64
	for _, l := range locs {
		if !bounds.Contains(l.Mean) {
			t.Errorf("o%d mean %v outside the building", l.Object, l.Mean)
		}
		if l.ModeProb <= 0 || l.ModeProb > 1+1e-9 {
			t.Errorf("o%d mode prob %v", l.Object, l.ModeProb)
		}
		if l.Entropy < 0 {
			t.Errorf("o%d negative entropy %v", l.Object, l.Entropy)
		}
		if l.RoomProb < 0 || l.RoomProb > 1+1e-9 {
			t.Errorf("o%d room prob %v", l.Object, l.RoomProb)
		}
		errs = append(errs, l.Mean.Dist(world.TruePosition(l.Object)))
	}
	// The mean estimate should track truth reasonably: average error below
	// 12 m on a 70 m floor (mean positions can split across lobes).
	if m := metrics.Mean(errs); m > 12 {
		t.Errorf("mean localization error = %v m", m)
	}
}

func TestLocalizeSingleObjectMatchesAll(t *testing.T) {
	sys, _ := testSystem(t, 10, 150, 22)
	objs := sys.Collector().KnownObjects()
	if len(objs) == 0 {
		t.Skip("no objects")
	}
	one, ok := sys.Localize(objs[0])
	if !ok {
		t.Fatal("Localize failed for a known object")
	}
	if one.Object != objs[0] {
		t.Errorf("object mismatch: %d", one.Object)
	}
}

func TestLocalizeUnknownObject(t *testing.T) {
	sys, _ := testSystem(t, 5, 60, 23)
	if _, ok := sys.Localize(9999); ok {
		t.Error("localized an unknown object")
	}
	if _, ok := sys.RoomDistribution(9999); ok {
		t.Error("room distribution for unknown object")
	}
}

func TestRoomDistributionSumsToOne(t *testing.T) {
	sys, _ := testSystem(t, 15, 200, 24)
	objs := sys.Collector().KnownObjects()
	for _, obj := range objs[:min(5, len(objs))] {
		odds, ok := sys.RoomDistribution(obj)
		if !ok {
			continue
		}
		total := 0.0
		prev := math.Inf(1)
		for _, ro := range odds {
			if ro.P > prev+1e-12 {
				t.Errorf("o%d odds not sorted: %v", obj, odds)
			}
			prev = ro.P
			total += ro.P
			if ro.Room != floorplan.NoRoom {
				if int(ro.Room) < 0 || int(ro.Room) >= len(sys.Graph().Plan().Rooms()) {
					t.Errorf("o%d bad room %d", obj, ro.Room)
				}
			}
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("o%d room odds sum to %v", obj, total)
		}
	}
}
