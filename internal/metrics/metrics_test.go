package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/anchor"
	"repro/internal/model"
)

func TestKLDivergenceZeroForIdentical(t *testing.T) {
	p := model.ResultSet{1: 0.5, 2: 0.5}
	if d := KLDivergence(p, p.Clone(), DefaultEpsilon); d > 1e-12 {
		t.Errorf("KL(P||P) = %v", d)
	}
}

func TestKLDivergencePositiveForDifferent(t *testing.T) {
	p := model.ResultSet{1: 1.0}
	q := model.ResultSet{2: 1.0}
	if d := KLDivergence(p, q, DefaultEpsilon); d <= 1 {
		t.Errorf("KL for disjoint masses = %v, want large", d)
	}
}

func TestKLDivergenceOrderMatters(t *testing.T) {
	p := model.ResultSet{1: 0.9, 2: 0.1}
	q := model.ResultSet{1: 0.5, 2: 0.5}
	dpq := KLDivergence(p, q, DefaultEpsilon)
	dqp := KLDivergence(q, p, DefaultEpsilon)
	if dpq <= 0 || dqp <= 0 {
		t.Fatalf("non-positive divergences %v, %v", dpq, dqp)
	}
	if math.Abs(dpq-dqp) < 1e-9 {
		t.Error("KL should be asymmetric for these inputs")
	}
}

func TestKLDivergenceEmpty(t *testing.T) {
	if d := KLDivergence(nil, nil, DefaultEpsilon); d != 0 {
		t.Errorf("empty KL = %v", d)
	}
}

func TestKLDivergenceNonNegativeProperty(t *testing.T) {
	f := func(ps, qs [8]float64) bool {
		p, q := model.ResultSet{}, model.ResultSet{}
		for i := range ps {
			p[model.ObjectID(i)] = math.Abs(math.Mod(ps[i], 1))
			q[model.ObjectID(i)] = math.Abs(math.Mod(qs[i], 1))
		}
		return KLDivergence(p, q, DefaultEpsilon) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKLDivergenceBetterApproximationScoresLower(t *testing.T) {
	truth := model.ResultSet{1: 1.0, 2: 1.0} // both objects in range
	good := model.ResultSet{1: 0.9, 2: 0.8, 3: 0.1}
	bad := model.ResultSet{1: 0.1, 3: 0.9, 4: 0.9}
	dg := KLDivergence(truth, good, DefaultEpsilon)
	db := KLDivergence(truth, bad, DefaultEpsilon)
	if dg >= db {
		t.Errorf("good answer KL %v >= bad answer KL %v", dg, db)
	}
}

func TestHitRate(t *testing.T) {
	truth := []model.ObjectID{1, 2, 3}
	if hr := HitRate([]model.ObjectID{1, 2, 3}, truth); hr != 1 {
		t.Errorf("perfect hit rate = %v", hr)
	}
	if hr := HitRate([]model.ObjectID{1, 5, 6}, truth); math.Abs(hr-1.0/3) > 1e-12 {
		t.Errorf("one-of-three hit rate = %v", hr)
	}
	if hr := HitRate(nil, truth); hr != 0 {
		t.Errorf("empty return hit rate = %v", hr)
	}
	if hr := HitRate([]model.ObjectID{1}, nil); hr != 1 {
		t.Errorf("empty truth hit rate = %v", hr)
	}
	// Returned set may be larger than truth without penalty (the paper
	// counts hits over the ground truth set).
	if hr := HitRate([]model.ObjectID{1, 2, 3, 4, 5}, truth); hr != 1 {
		t.Errorf("superset hit rate = %v", hr)
	}
}

func TestTopKLocations(t *testing.T) {
	dist := map[anchor.ID]float64{1: 0.1, 2: 0.6, 3: 0.3}
	top := TopKLocations(dist, 2)
	if len(top) != 2 || top[0] != 2 || top[1] != 3 {
		t.Errorf("top-2 = %v", top)
	}
	// k beyond the support returns everything.
	if got := TopKLocations(dist, 10); len(got) != 3 {
		t.Errorf("oversized k = %v", got)
	}
	// Ties break to the lower ID.
	tie := map[anchor.ID]float64{5: 0.5, 3: 0.5}
	if got := TopKLocations(tie, 1); got[0] != 3 {
		t.Errorf("tie-break = %v", got)
	}
}

func TestTopKSuccess(t *testing.T) {
	dist := map[anchor.ID]float64{1: 0.1, 2: 0.6, 3: 0.3}
	if !TopKSuccess(dist, 2, 1) {
		t.Error("top-1 should contain anchor 2")
	}
	if TopKSuccess(dist, 1, 1) {
		t.Error("top-1 should not contain anchor 1")
	}
	if !TopKSuccess(dist, 3, 2) {
		t.Error("top-2 should contain anchor 3")
	}
	if TopKSuccess(nil, 1, 3) {
		t.Error("empty distribution cannot succeed")
	}
}

func TestMean(t *testing.T) {
	vs := []float64{1, 2, 3, 4}
	if m := Mean(vs); math.Abs(m-2.5) > 1e-12 {
		t.Errorf("Mean = %v", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestSilentLoss(t *testing.T) {
	if got := SilentLoss(100, 90, 6, 4); got != 0 {
		t.Errorf("balanced pipeline: silent loss %d", got)
	}
	if got := SilentLoss(100, 90, 6, 0); got != 4 {
		t.Errorf("leaky pipeline: silent loss %d, want 4", got)
	}
	if got := SilentLoss(0, 0, 0, 0); got != 0 {
		t.Errorf("empty pipeline: silent loss %d", got)
	}
}
