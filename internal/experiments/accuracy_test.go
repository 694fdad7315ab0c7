package experiments

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// accuracyGolden holds, per metric, the seed-averaged mean and its
// seed-to-seed standard error at the operating point below. GOLDEN_UPDATE=1
// rewrites it; do that only when inference quality is meant to change.
const accuracyGolden = "testdata/accuracy.golden"

// accuracySeeds is how many seeds (1..n) the gate averages over.
const accuracySeeds = 10

// accuracyParams is the operating point of the paper's Figures 9–13 (200
// objects, Ns 64, 2 m activation range, 19 readers) with fewer query time
// stamps than the paper's 50, so ten seeds fit in about half a minute.
func accuracyParams(seed int64) Params {
	p := Default()
	p.Timestamps = 10
	p.Seed = seed
	return p
}

// accuracyMetrics are the particle filter's §5 measures the gate pins, in
// table order.
var accuracyMetrics = []struct {
	name string
	of   func(Measurement) float64
}{
	{"pf_kl", func(m Measurement) float64 { return m.PFKL }},
	{"pf_hit", func(m Measurement) float64 { return m.PFHit }},
	{"top1", func(m Measurement) float64 { return m.Top1 }},
	{"top2", func(m Measurement) float64 { return m.Top2 }},
}

// meanSE returns the mean of xs and its standard error (sample standard
// deviation over sqrt(n)).
func meanSE(xs []float64) (mean, se float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss/float64(len(xs)-1)) / math.Sqrt(float64(len(xs)))
}

// TestAccuracyGate is the statistical accuracy gate: the particle filter's
// range KL divergence, kNN hit rate and top-1/top-2 success, averaged over
// seeds 1–10, must each lie within 3 standard errors of the golden mean.
// Unlike a per-seed bit pin it lets the kernel's float and RNG order change
// while still catching a change that costs inference quality. `make accuracy`
// runs it verbosely and prints the table.
func TestAccuracyGate(t *testing.T) {
	if raceEnabled {
		t.Skip("ten full-scale experiment runs are too slow under the race detector")
	}
	samples := make([][]float64, len(accuracyMetrics))
	for seed := int64(1); seed <= accuracySeeds; seed++ {
		m, err := Run(accuracyParams(seed))
		if err != nil {
			t.Fatal(err)
		}
		for i, am := range accuracyMetrics {
			samples[i] = append(samples[i], am.of(m))
		}
	}
	var got strings.Builder
	for i, am := range accuracyMetrics {
		mean, se := meanSE(samples[i])
		fmt.Fprintf(&got, "%s %.6f %.6f\n", am.name, mean, se)
	}
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(accuracyGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := readAccuracyGolden(accuracyGolden)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%-7s %10s %10s %10s %10s", "metric", "mean", "golden", "golden SE", "|Δ|/SE")
	for i, am := range accuracyMetrics {
		mean, _ := meanSE(samples[i])
		w, ok := want[am.name]
		if !ok {
			t.Fatalf("%s missing from %s", am.name, accuracyGolden)
		}
		dev := math.Abs(mean - w[0])
		t.Logf("%-7s %10.4f %10.4f %10.4f %10.2f", am.name, mean, w[0], w[1], dev/w[1])
		if dev > 3*w[1] {
			t.Errorf("%s: mean %.4f over seeds 1–%d is %.2f standard errors from the golden %.4f (limit 3)",
				am.name, mean, accuracySeeds, dev/w[1], w[0])
		}
	}
}

// readAccuracyGolden parses "name mean se" lines.
func readAccuracyGolden(path string) (map[string][2]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][2]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var name string
		var mean, se float64
		if _, err := fmt.Sscanf(sc.Text(), "%s %g %g", &name, &mean, &se); err != nil {
			return nil, fmt.Errorf("%s: %q: %w", path, sc.Text(), err)
		}
		out[name] = [2]float64{mean, se}
	}
	return out, sc.Err()
}
