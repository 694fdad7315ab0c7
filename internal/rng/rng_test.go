package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("sources with equal seeds diverged at draw %d", i)
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := New(1)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(2.5, 7.5)
		if v < 2.5 || v >= 7.5 {
			t.Fatalf("Uniform(2.5, 7.5) = %v out of range", v)
		}
	}
}

func TestGaussianMoments(t *testing.T) {
	s := New(99)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := 1.0 + 0.1*s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-1.0) > 0.005 {
		t.Errorf("Gaussian mean = %v, want ~1.0", mean)
	}
	if math.Abs(math.Sqrt(variance)-0.1) > 0.005 {
		t.Errorf("Gaussian stddev = %v, want ~0.1", math.Sqrt(variance))
	}
}

func TestTruncGaussianBounds(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.TruncGaussian(1.0, 0.1, 0.5, 1.5)
		if v < 0.5 || v > 1.5 {
			t.Fatalf("TruncGaussian escaped bounds: %v", v)
		}
	}
}

func TestTruncGaussianFarWindowClamps(t *testing.T) {
	s := New(3)
	v := s.TruncGaussian(0, 0.01, 10, 11)
	if v != 10 {
		t.Errorf("far-window TruncGaussian = %v, want clamp to 10", v)
	}
}

func TestTruncGaussianPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for lo > hi")
		}
	}()
	New(1).TruncGaussian(0, 1, 5, 4)
}

func TestCategoricalRespectsWeights(t *testing.T) {
	s := New(5)
	weights := []float64{0.0, 1.0, 3.0}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Categorical(weights)]++
	}
	if counts[0] != 0 {
		t.Errorf("zero-weight bucket sampled %d times", counts[0])
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if math.Abs(ratio-3.0) > 0.15 {
		t.Errorf("weight ratio = %v, want ~3.0", ratio)
	}
}

func TestCategoricalAllZeroFallsBackToUniform(t *testing.T) {
	s := New(8)
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[s.Categorical([]float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("bucket %d count = %d, want ~10000", i, c)
		}
	}
}

func TestCategoricalNegativeTreatedAsZero(t *testing.T) {
	s := New(11)
	for i := 0; i < 1000; i++ {
		if idx := s.Categorical([]float64{-5, 1}); idx != 1 {
			t.Fatalf("negative-weight bucket sampled (idx=%d)", idx)
		}
	}
}

func TestCategoricalPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty weights")
		}
	}()
	New(1).Categorical(nil)
}

func TestCategoricalIndexAlwaysValid(t *testing.T) {
	s := New(13)
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		idx := s.Categorical(raw)
		return idx >= 0 && idx < len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(21)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.1) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.1) > 0.01 {
		t.Errorf("Bool(0.1) hit rate = %v", p)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	s := New(50)
	vals := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	s.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	seen := make([]bool, 10)
	for _, v := range vals {
		if seen[v] {
			t.Fatalf("Shuffle lost/duplicated values: %v", vals)
		}
		seen[v] = true
	}
}

func TestDeriveDeterministicAndOrderSensitive(t *testing.T) {
	a := Derive(1, 2, 3)
	b := Derive(1, 2, 3)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("equal derivations diverged")
		}
	}
	// Different id order yields a different stream.
	c := Derive(1, 3, 2)
	d := Derive(1, 2, 3)
	same := true
	for i := 0; i < 10; i++ {
		if c.Float64() != d.Float64() {
			same = false
		}
	}
	if same {
		t.Error("order-swapped derivation produced an identical stream")
	}
	// Different seed too.
	e := Derive(2, 2, 3)
	f2 := Derive(1, 2, 3)
	same = true
	for i := 0; i < 10; i++ {
		if e.Float64() != f2.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different-seed derivation produced an identical stream")
	}
}

func TestDeriveNoIDs(t *testing.T) {
	a, b := Derive(7), Derive(7)
	if a.Float64() != b.Float64() {
		t.Error("zero-id derivation not deterministic")
	}
}
