package query

import (
	"math"
	"testing"

	"repro/internal/anchor"
	"repro/internal/geom"
	"repro/internal/model"
)

func TestContinuousRangeDeltas(t *testing.T) {
	c := NewContinuousRange(geom.RectWH(0, 0, 10, 10), 0.5)
	entered, left := c.Update(model.ResultSet{1: 0.8, 2: 0.3})
	if len(entered) != 1 || entered[0] != 1 || len(left) != 0 {
		t.Fatalf("first update: entered=%v left=%v", entered, left)
	}
	// Object 2 rises above threshold, object 1 drops below.
	entered, left = c.Update(model.ResultSet{1: 0.2, 2: 0.9})
	if len(entered) != 1 || entered[0] != 2 {
		t.Errorf("entered = %v", entered)
	}
	if len(left) != 1 || left[0] != 1 {
		t.Errorf("left = %v", left)
	}
	// No changes.
	entered, left = c.Update(model.ResultSet{2: 0.9})
	if len(entered) != 0 || len(left) != 0 {
		t.Errorf("steady state: entered=%v left=%v", entered, left)
	}
	if res := c.Result(); len(res) != 1 || res[0] != 2 {
		t.Errorf("Result = %v", res)
	}
}

func TestContinuousRangeEmptyUpdates(t *testing.T) {
	c := NewContinuousRange(geom.RectWH(0, 0, 5, 5), 0.5)
	if e, l := c.Update(nil); len(e) != 0 || len(l) != 0 {
		t.Errorf("empty first update: %v %v", e, l)
	}
	c.Update(model.ResultSet{3: 0.9})
	e, l := c.Update(nil)
	if len(e) != 0 || len(l) != 1 || l[0] != 3 {
		t.Errorf("empty after member: entered=%v left=%v", e, l)
	}
}

func TestContinuousRangeSortedOutput(t *testing.T) {
	c := NewContinuousRange(geom.RectWH(0, 0, 5, 5), 0.5)
	entered, _ := c.Update(model.ResultSet{9: 0.9, 2: 0.8, 5: 0.7})
	for i := 1; i < len(entered); i++ {
		if entered[i] < entered[i-1] {
			t.Fatalf("entered not sorted: %v", entered)
		}
	}
}

func TestContinuousKNNDeltas(t *testing.T) {
	c := NewContinuousKNN(geom.Pt(5, 5), 2)
	added, removed := c.Update(model.ResultSet{1: 0.9, 2: 0.8, 3: 0.1})
	if len(added) != 2 || added[0] != 1 || added[1] != 2 || len(removed) != 0 {
		t.Fatalf("first update: added=%v removed=%v", added, removed)
	}
	// Object 3 overtakes object 2.
	added, removed = c.Update(model.ResultSet{1: 0.9, 2: 0.2, 3: 0.8})
	if len(added) != 1 || added[0] != 3 {
		t.Errorf("added = %v", added)
	}
	if len(removed) != 1 || removed[0] != 2 {
		t.Errorf("removed = %v", removed)
	}
	if res := c.Result(); len(res) != 2 || res[0] != 1 || res[1] != 3 {
		t.Errorf("Result = %v", res)
	}
}

func TestClosestPairsPointMasses(t *testing.T) {
	g, idx, _ := corridor(t)
	e := NewEvaluator(g, idx)
	tab := anchor.NewTable()
	// Three point-mass objects at x ~ 5, 7, 30 on the hallway.
	a5 := hallwayAnchorNear(t, idx, 5)
	a7 := hallwayAnchorNear(t, idx, 7)
	a30 := hallwayAnchorNear(t, idx, 30)
	tab.Add(a5, 1, 1)
	tab.Add(a7, 2, 1)
	tab.Add(a30, 3, 1)
	pairs := e.ClosestPairs(tab, 3)
	if len(pairs) != 3 {
		t.Fatalf("pairs = %v", pairs)
	}
	if pairs[0].A != 1 || pairs[0].B != 2 {
		t.Errorf("closest pair = %+v, want (1,2)", pairs[0])
	}
	wantDist := idx.Anchor(a5).Pos.Dist(idx.Anchor(a7).Pos)
	if math.Abs(pairs[0].Dist-wantDist) > 1e-9 {
		t.Errorf("closest distance = %v, want %v", pairs[0].Dist, wantDist)
	}
	// Distances ascend.
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Dist < pairs[i-1].Dist {
			t.Fatalf("pairs not sorted: %v", pairs)
		}
	}
}

func TestClosestPairsExpectedDistance(t *testing.T) {
	g, idx, _ := corridor(t)
	e := NewEvaluator(g, idx)
	tab := anchor.NewTable()
	// Object 1 split between x~5 (p=0.5) and x~9 (p=0.5); object 2 at x~15.
	a5 := hallwayAnchorNear(t, idx, 5)
	a9 := hallwayAnchorNear(t, idx, 9)
	a15 := hallwayAnchorNear(t, idx, 15)
	tab.Add(a5, 1, 0.5)
	tab.Add(a9, 1, 0.5)
	tab.Add(a15, 2, 1)
	pairs := e.ClosestPairs(tab, 1)
	if len(pairs) != 1 {
		t.Fatal("no pair")
	}
	want := 0.5*idx.Anchor(a5).Pos.Dist(idx.Anchor(a15).Pos) +
		0.5*idx.Anchor(a9).Pos.Dist(idx.Anchor(a15).Pos)
	if math.Abs(pairs[0].Dist-want) > 1e-9 {
		t.Errorf("expected distance = %v, want %v", pairs[0].Dist, want)
	}
}

func TestClosestPairsEdgeCases(t *testing.T) {
	g, idx, _ := corridor(t)
	e := NewEvaluator(g, idx)
	tab := anchor.NewTable()
	if got := e.ClosestPairs(tab, 3); got != nil {
		t.Errorf("empty table pairs = %v", got)
	}
	tab.Add(hallwayAnchorNear(t, idx, 5), 1, 1)
	if got := e.ClosestPairs(tab, 3); got != nil {
		t.Errorf("single object pairs = %v", got)
	}
	tab.Add(hallwayAnchorNear(t, idx, 9), 2, 1)
	if got := e.ClosestPairs(tab, 0); got != nil {
		t.Errorf("k=0 pairs = %v", got)
	}
	// k larger than the pair count clamps.
	if got := e.ClosestPairs(tab, 99); len(got) != 1 {
		t.Errorf("oversized k pairs = %v", got)
	}
}

// TestClosestPairsDeterministic: the expected distance of a pair is a double
// sum of float products, so its last bits depend on summation order. The
// distributions are walked in ascending anchor order, never in map order:
// fifty calls on one table must agree to the bit, ranks included.
func TestClosestPairsDeterministic(t *testing.T) {
	g, idx, _ := corridor(t)
	e := NewEvaluator(g, idx)
	tab := anchor.NewTable()
	for obj := 1; obj <= 6; obj++ {
		dist := make(map[anchor.ID]float64)
		total := 0.0
		for j := 0; j < 9; j++ {
			w := 1 / float64(3+((obj*7+j*5)%11))
			dist[anchor.ID((obj*3+j*4)%idx.NumAnchors())] += w
			total += w
		}
		for ap := range dist {
			dist[ap] /= total
		}
		tab.SetDistribution(model.ObjectID(obj), dist)
	}
	first := e.ClosestPairs(tab, 15)
	if len(first) != 15 {
		t.Fatalf("got %d pairs, want 15", len(first))
	}
	for call := 1; call < 50; call++ {
		again := e.ClosestPairs(tab, 15)
		for i := range first {
			if again[i].A != first[i].A || again[i].B != first[i].B ||
				math.Float64bits(again[i].Dist) != math.Float64bits(first[i].Dist) {
				t.Fatalf("call %d, rank %d: %+v (%x), first call %+v (%x)", call, i,
					again[i], math.Float64bits(again[i].Dist), first[i], math.Float64bits(first[i].Dist))
			}
		}
	}
}
