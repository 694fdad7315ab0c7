package anchor

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

// probAt returns the object's probability in an anchor's posting list.
func probAt(ps []Posting, obj model.ObjectID) (float64, bool) {
	for _, po := range ps {
		if po.Object == obj {
			return po.P, true
		}
	}
	return 0, false
}

func TestTableAddAndGet(t *testing.T) {
	tb := NewTable()
	tb.Add(ID(3), 1, 0.14)
	tb.Add(ID(3), 3, 0.03)
	tb.Add(ID(3), 7, 0.37)
	// This mirrors the paper's APtoObjHT example entry:
	// (8.5,6.2) -> {<o1,0.14>, <o3,0.03>, <o7,0.37>}.
	rs := tb.Get(ID(3))
	want := []Posting{{1, 0.14}, {3, 0.03}, {7, 0.37}}
	if !reflect.DeepEqual(rs, want) {
		t.Errorf("Get = %v, want %v", rs, want)
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d", tb.Len())
	}
}

func TestTableAccumulates(t *testing.T) {
	tb := NewTable()
	tb.Add(ID(1), 5, 0.25)
	tb.Add(ID(1), 5, 0.25)
	if got, _ := probAt(tb.Get(ID(1)), 5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("accumulated = %v", got)
	}
	if got := tb.TotalProbOf(5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("TotalProbOf = %v", got)
	}
}

func TestTableIgnoresNonPositive(t *testing.T) {
	tb := NewTable()
	tb.Add(ID(1), 5, 0)
	tb.Add(ID(1), 5, -0.5)
	if tb.Len() != 0 || tb.HasObject(5) {
		t.Error("non-positive probabilities were stored")
	}
}

func TestTableReverseIndex(t *testing.T) {
	tb := NewTable()
	tb.Add(ID(1), 5, 0.3)
	tb.Add(ID(2), 5, 0.7)
	dist := tb.DistributionOf(5)
	if want := (Dist{IDs: []ID{1, 2}, P: []float64{0.3, 0.7}}); !reflect.DeepEqual(dist, want) {
		t.Errorf("DistributionOf = %v", dist)
	}
	if !tb.HasObject(5) || tb.HasObject(6) {
		t.Error("HasObject wrong")
	}
	objs := tb.Objects()
	if len(objs) != 1 || objs[0] != 5 {
		t.Errorf("Objects = %v", objs)
	}
}

func TestTableRemoveObject(t *testing.T) {
	tb := NewTable()
	tb.Add(ID(1), 5, 0.3)
	tb.Add(ID(1), 6, 0.4)
	tb.Add(ID(2), 5, 0.7)
	tb.RemoveObject(5)
	if tb.HasObject(5) {
		t.Error("object 5 still present")
	}
	if p, _ := probAt(tb.Get(ID(1)), 6); p != 0.4 {
		t.Error("object 6 disturbed")
	}
	// Anchor 2 had only object 5; it should be gone entirely.
	if len(tb.Get(ID(2))) != 0 {
		t.Error("empty anchor entry not removed")
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d", tb.Len())
	}
}

func TestTableSetDistributionReplaces(t *testing.T) {
	tb := NewTable()
	tb.Add(ID(1), 5, 1.0)
	tb.SetDistribution(5, map[ID]float64{ID(2): 0.5, ID(3): 0.5})
	if _, ok := probAt(tb.Get(ID(1)), 5); ok {
		t.Error("old entry survived SetDistribution")
	}
	p2, _ := probAt(tb.Get(ID(2)), 5)
	p3, _ := probAt(tb.Get(ID(3)), 5)
	if p2 != 0.5 || p3 != 0.5 {
		t.Error("new distribution not stored")
	}
}

func TestTableClear(t *testing.T) {
	tb := NewTable()
	tb.Add(ID(1), 5, 1.0)
	tb.Clear()
	if tb.Len() != 0 || tb.HasObject(5) {
		t.Error("Clear left entries")
	}
}

func TestTableForwardReverseConsistent(t *testing.T) {
	// Property: after arbitrary adds, the forward and reverse maps agree.
	f := func(adds []struct {
		AP  uint8
		Obj uint8
		P   float64
	}) bool {
		tb := NewTable()
		for _, a := range adds {
			tb.Add(ID(a.AP), model.ObjectID(a.Obj), math.Abs(math.Mod(a.P, 1)))
		}
		for _, obj := range tb.Objects() {
			d := tb.DistributionOf(obj)
			for i, ap := range d.IDs {
				if got, ok := probAt(tb.Get(ap), obj); !ok || got != d.P[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTableObjectsSorted pins Objects() to ascending object-ID order: every
// float accumulation over a preprocessing table iterates in this order, so
// sortedness is what makes engine answers identical run to run and across
// the single and sharded engines.
func TestTableObjectsSorted(t *testing.T) {
	f := func(ids []uint16) bool {
		tb := NewTable()
		for i, id := range ids {
			tb.Add(ID(i%7), model.ObjectID(id), 0.5)
		}
		objs := tb.Objects()
		for i := 1; i < len(objs); i++ {
			if objs[i-1] >= objs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
