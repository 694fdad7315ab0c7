// Package experiments regenerates every figure of the paper's evaluation
// (Section 5): the simulator produces ground-truth traces and noisy raw
// readings over the default office, both the particle filter-based system
// and the symbolic model baseline answer the same randomized range and kNN
// workloads, and the paper's metrics (KL divergence, kNN hit rate, top-k
// success rate) are averaged over query windows, query points, and time
// stamps.
package experiments

import (
	"math"

	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Params parameterizes one experiment configuration. Zero values are not
// usable; start from Default.
type Params struct {
	// Particles is the particle count Ns (Table 2 default: 64).
	Particles int
	// WindowPct is the range query window size as a percentage of the total
	// floor area (default: 2).
	WindowPct float64
	// Objects is the number of moving objects (default: 200).
	Objects int
	// K is the kNN k (default: 3).
	K int
	// ActivationRange is the reader activation range in meters (default: 2).
	ActivationRange float64
	// Readers is the number of deployed readers (paper: 19).
	Readers int
	// WarmupSeconds runs the simulation before the first query time stamp.
	WarmupSeconds int
	// Timestamps is the number of query time stamps (paper: 50).
	Timestamps int
	// StepBetween is the number of simulated seconds between time stamps.
	StepBetween int
	// RangeWindows is the number of random query windows per time stamp
	// (paper: 100).
	RangeWindows int
	// KNNPoints is the number of random kNN query points per time stamp
	// (paper: 30).
	KNNPoints int
	// DwellMin and DwellMax bound the uniform in-room dwell time of the
	// simulated objects. The paper's trace generator has objects walking
	// continuously between random destination rooms; a short dwell keeps
	// them mostly in motion while still exercising in-room inference.
	DwellMin, DwellMax int
	// Seed drives all randomness.
	Seed int64
	// Tweak, when non-nil, adjusts the engine configuration after the sweep
	// parameters are applied and before the system is built. The ablation
	// benchmarks use it to flip individual design choices (resampling
	// variant, negative information, cache, pruning, anchor spacing).
	Tweak func(*engine.Config)
}

// Default returns the paper's experiment defaults (Table 2 and Section 5).
func Default() Params {
	return Params{
		Particles:       64,
		WindowPct:       2,
		Objects:         200,
		K:               3,
		ActivationRange: 2,
		Readers:         19,
		WarmupSeconds:   120,
		Timestamps:      50,
		StepBetween:     10,
		RangeWindows:    100,
		KNNPoints:       30,
		DwellMin:        2,
		DwellMax:        10,
		Seed:            1,
	}
}

// Quick returns reduced parameters for fast smoke runs and tests.
func Quick() Params {
	p := Default()
	p.Objects = 40
	p.WarmupSeconds = 80
	p.Timestamps = 6
	p.RangeWindows = 20
	p.KNNPoints = 8
	return p
}

// Measurement is the averaged outcome of one configuration.
type Measurement struct {
	// PFKL and SMKL are mean KL divergences of range query answers.
	PFKL, SMKL float64
	// PFHit and SMHit are mean kNN hit rates.
	PFHit, SMHit float64
	// Top1 and Top2 are the particle filter's top-k success rates.
	Top1, Top2 float64
	// RangeQueries and KNNQueries count the evaluated queries.
	RangeQueries, KNNQueries int
}

// Run executes one experiment configuration and returns its averaged
// measurement.
func Run(p Params) (Measurement, error) {
	plan := floorplan.DefaultOffice()
	dep, err := rfid.DeployUniform(plan, p.Readers, p.ActivationRange)
	if err != nil {
		return Measurement{}, err
	}
	cfg := engine.DefaultConfig()
	cfg.Particle.Ns = p.Particles
	cfg.Seed = p.Seed
	if p.Tweak != nil {
		p.Tweak(&cfg)
	}
	sys, err := engine.New(plan, dep, cfg)
	if err != nil {
		return Measurement{}, err
	}
	sm, err := baseline.New(sys)
	if err != nil {
		return Measurement{}, err
	}
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = p.Objects
	tc.DwellMin = model.Time(p.DwellMin)
	tc.DwellMax = model.Time(p.DwellMax)
	simulator, err := sim.New(sys.Graph(), rfid.NewSensor(dep), tc, p.Seed+77)
	if err != nil {
		return Measurement{}, err
	}
	for i := 0; i < p.WarmupSeconds; i++ {
		t, raws := simulator.Step()
		sys.Ingest(t, raws)
	}

	src := rng.New(p.Seed + 555)
	var (
		pfKL, smKL, pfHit, smHit []float64
		top1Hits, top2Hits       int
		topTotal                 int
	)
	for ts := 0; ts < p.Timestamps; ts++ {
		for i := 0; i < p.StepBetween; i++ {
			t, raws := simulator.Step()
			sys.Ingest(t, raws)
		}
		objs := sys.Collector().KnownObjects()
		pfTab := sys.Preprocess(objs)
		smTab := sm.Preprocess(objs)

		// Range queries.
		for w := 0; w < p.RangeWindows; w++ {
			win := randomWindow(src, plan, p.WindowPct)
			truth := make(model.ResultSet)
			for _, o := range simulator.TrueRange(win) {
				truth[o] = 1
			}
			if len(truth) == 0 {
				continue
			}
			pfKL = append(pfKL, metrics.KLDivergence(truth, sys.RangeQueryOn(pfTab, win), metrics.DefaultEpsilon))
			smKL = append(smKL, metrics.KLDivergence(truth, sys.RangeQueryOn(smTab, win), metrics.DefaultEpsilon))
		}

		// kNN queries.
		for q := 0; q < p.KNNPoints; q++ {
			pt := randomHallwayPoint(src, plan)
			truth := simulator.TrueKNN(pt, p.K)
			pfRS := sys.KNNQueryOn(pfTab, pt, p.K)
			pfHit = append(pfHit, metrics.HitRate(pfRS.Objects(), truth))
			smSet := sm.KNNQueryOn(smTab, pt, p.K)
			smHit = append(smHit, metrics.HitRate(smSet, truth))
		}

		// Top-k success of the particle filter's inferred locations.
		idx := sys.AnchorIndex()
		for _, obj := range objs {
			dist := pfTab.DistributionOf(obj).Map()
			if len(dist) == 0 {
				continue
			}
			trueAnchor := idx.Snap(simulator.TrueLocation(obj))
			topTotal++
			if metrics.TopKSuccess(dist, trueAnchor, 1) {
				top1Hits++
			}
			if metrics.TopKSuccess(dist, trueAnchor, 2) {
				top2Hits++
			}
		}
	}

	m := Measurement{
		PFKL:         metrics.Mean(pfKL),
		SMKL:         metrics.Mean(smKL),
		PFHit:        metrics.Mean(pfHit),
		SMHit:        metrics.Mean(smHit),
		RangeQueries: len(pfKL),
		KNNQueries:   len(pfHit),
	}
	if topTotal > 0 {
		m.Top1 = float64(top1Hits) / float64(topTotal)
		m.Top2 = float64(top2Hits) / float64(topTotal)
	}
	return m, nil
}

// randomWindow draws a random rectangle covering pct percent of the plan's
// total area, with a random aspect ratio, fully inside the plan bounds.
func randomWindow(src *rng.Source, plan *floorplan.Plan, pct float64) geom.Rect {
	bounds := plan.Bounds()
	area := plan.TotalArea() * pct / 100
	aspect := src.Uniform(0.5, 2.0)
	w := math.Sqrt(area * aspect)
	h := area / w
	if w > bounds.Width() {
		w = bounds.Width()
		h = area / w
	}
	if h > bounds.Height() {
		h = bounds.Height()
		w = area / h
	}
	x := src.Uniform(bounds.Min.X, math.Max(bounds.Min.X, bounds.Max.X-w))
	y := src.Uniform(bounds.Min.Y, math.Max(bounds.Min.Y, bounds.Max.Y-h))
	return geom.RectWH(x, y, w, h)
}

// randomHallwayPoint draws a random point on a hallway centerline, weighted
// by hallway length (query points are approximated onto the walking graph by
// the evaluator anyway).
func randomHallwayPoint(src *rng.Source, plan *floorplan.Plan) geom.Point {
	d := src.Uniform(0, plan.TotalHallwayLength())
	pt, _ := plan.PointOnHallway(d)
	return pt
}
