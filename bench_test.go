// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation section, plus ablation benchmarks for the design choices called
// out in DESIGN.md and micro-benchmarks of the hot paths.
//
// The figure benchmarks run the full simulation-and-query pipeline at a
// reduced (but representative) workload per iteration and attach the paper's
// accuracy metrics to the benchmark output via b.ReportMetric, so a single
//
//	go test -bench=Fig -benchmem
//
// regenerates the relative PF-vs-SM picture of every figure. The full-scale
// numbers recorded in EXPERIMENTS.md come from cmd/experiments.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/anchor"
	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/particle"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/walkgraph"
)

// benchParams is the reduced workload used by the figure benchmarks.
func benchParams() experiments.Params {
	p := experiments.Quick()
	p.Objects = 30
	p.WarmupSeconds = 60
	p.Timestamps = 3
	p.RangeWindows = 10
	p.KNNPoints = 5
	return p
}

// reportAccuracy attaches the paper's metrics to the benchmark output.
func reportAccuracy(b *testing.B, m experiments.Measurement) {
	b.ReportMetric(m.PFKL, "PF_KL")
	b.ReportMetric(m.SMKL, "SM_KL")
	b.ReportMetric(m.PFHit, "PF_hit")
	b.ReportMetric(m.SMHit, "SM_hit")
	b.ReportMetric(m.Top1, "top1")
	b.ReportMetric(m.Top2, "top2")
}

func runFigurePoint(b *testing.B, p experiments.Params) {
	b.Helper()
	var m experiments.Measurement
	var err error
	for i := 0; i < b.N; i++ {
		m, err = experiments.Run(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAccuracy(b, m)
}

// BenchmarkFig09QueryWindowSize regenerates Figure 9: range query KL
// divergence (PF vs SM) as the query window grows from 1% to 5% of the
// floor area.
func BenchmarkFig09QueryWindowSize(b *testing.B) {
	for _, pct := range []float64{1, 2, 3, 4, 5} {
		b.Run(fmt.Sprintf("window=%g%%", pct), func(b *testing.B) {
			p := benchParams()
			p.WindowPct = pct
			runFigurePoint(b, p)
		})
	}
}

// BenchmarkFig10K regenerates Figure 10: kNN average hit rate (PF vs SM) for
// k from 2 to 9.
func BenchmarkFig10K(b *testing.B) {
	for _, k := range []int{2, 3, 5, 7, 9} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			p := benchParams()
			p.K = k
			runFigurePoint(b, p)
		})
	}
}

// BenchmarkFig11Particles regenerates Figure 11: KL divergence, kNN hit
// rate, and top-k success rate as the particle count sweeps 2 to 512.
func BenchmarkFig11Particles(b *testing.B) {
	for _, ns := range []int{2, 8, 64, 512} {
		b.Run(fmt.Sprintf("particles=%d", ns), func(b *testing.B) {
			p := benchParams()
			p.Particles = ns
			runFigurePoint(b, p)
		})
	}
}

// BenchmarkFig12Objects regenerates Figure 12: the same metrics as the
// population scales 1x to 5x.
func BenchmarkFig12Objects(b *testing.B) {
	for _, n := range []int{30, 90, 150} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			p := benchParams()
			p.Objects = n
			runFigurePoint(b, p)
		})
	}
}

// BenchmarkFig13ActivationRange regenerates Figure 13: the same metrics as
// the reader activation range sweeps 0.5 m to 2.5 m.
func BenchmarkFig13ActivationRange(b *testing.B) {
	for _, r := range []float64{0.5, 1.0, 1.5, 2.0, 2.5} {
		b.Run(fmt.Sprintf("range=%gm", r), func(b *testing.B) {
			p := benchParams()
			p.ActivationRange = r
			runFigurePoint(b, p)
		})
	}
}

// Ablation benchmarks: design choices called out in DESIGN.md.

// BenchmarkAblationResampling compares the paper's systematic resampling
// (Algorithm 1) with the multinomial baseline.
func BenchmarkAblationResampling(b *testing.B) {
	for _, variant := range []struct {
		name string
		fn   particle.Resampler
	}{
		{"systematic", particle.Systematic},
		{"multinomial", particle.Multinomial},
	} {
		b.Run(variant.name, func(b *testing.B) {
			p := benchParams()
			p.Tweak = func(c *engine.Config) { c.Particle.Resample = variant.fn }
			runFigurePoint(b, p)
		})
	}
}

// BenchmarkAblationAnchorSpacing sweeps the anchor point spacing: finer
// anchors improve resolution at index and query cost.
func BenchmarkAblationAnchorSpacing(b *testing.B) {
	for _, s := range []float64{0.5, 1.0, 2.0} {
		b.Run(fmt.Sprintf("spacing=%gm", s), func(b *testing.B) {
			p := benchParams()
			p.Tweak = func(c *engine.Config) { c.AnchorSpacing = s }
			runFigurePoint(b, p)
		})
	}
}

// BenchmarkAblationNegativeInfo measures the benefit of treating silent
// seconds as observations (an extension over the paper's Algorithm 2).
func BenchmarkAblationNegativeInfo(b *testing.B) {
	for _, on := range []bool{true, false} {
		b.Run(fmt.Sprintf("negative=%v", on), func(b *testing.B) {
			p := benchParams()
			p.Tweak = func(c *engine.Config) { c.Particle.UseNegativeInfo = on }
			runFigurePoint(b, p)
		})
	}
}

// BenchmarkAblationRoomExit sweeps the particle room-exit probability
// around the paper's 0.1.
func BenchmarkAblationRoomExit(b *testing.B) {
	for _, pr := range []float64{0.05, 0.1, 0.2} {
		b.Run(fmt.Sprintf("exit=%g", pr), func(b *testing.B) {
			p := benchParams()
			p.Tweak = func(c *engine.Config) { c.Particle.RoomExitProb = pr }
			runFigurePoint(b, p)
		})
	}
}

// benchSystem builds a warmed-up system + simulator for the latency
// benchmarks.
func benchSystem(b *testing.B, tweak func(*engine.Config)) (*engine.System, *sim.Simulator) {
	b.Helper()
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := engine.DefaultConfig()
	if tweak != nil {
		tweak(&cfg)
	}
	sys := engine.MustNew(plan, dep, cfg)
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 50
	tc.DwellMin, tc.DwellMax = 2, 10
	world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, 123)
	for i := 0; i < 120; i++ {
		t, raws := world.Step()
		sys.Ingest(t, raws)
	}
	return sys, world
}

// BenchmarkAblationPruning measures snapshot range query latency with the
// query aware optimization module on and off.
func BenchmarkAblationPruning(b *testing.B) {
	for _, on := range []bool{true, false} {
		b.Run(fmt.Sprintf("pruning=%v", on), func(b *testing.B) {
			sys, _ := benchSystem(b, func(c *engine.Config) {
				c.UsePruning = on
				c.UseCache = false
			})
			win := geom.RectWH(10, 9, 10, 6)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.RangeQuery(win)
			}
		})
	}
}

// BenchmarkAblationCache measures repeated-query latency with the cache
// management module on and off (Section 4.5's claimed benefit).
func BenchmarkAblationCache(b *testing.B) {
	for _, on := range []bool{true, false} {
		b.Run(fmt.Sprintf("cache=%v", on), func(b *testing.B) {
			sys, _ := benchSystem(b, func(c *engine.Config) { c.UseCache = on })
			win := geom.RectWH(10, 9, 30, 6)
			sys.RangeQuery(win) // populate
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.RangeQuery(win)
			}
		})
	}
}

// BenchmarkRegistryEventDriven measures registered-query maintenance with
// the critical-device optimization on and off, during quiet stretches (no
// readings): the event-driven registry skips untouched range queries.
func BenchmarkRegistryEventDriven(b *testing.B) {
	for _, on := range []bool{true, false} {
		b.Run(fmt.Sprintf("eventDriven=%v", on), func(b *testing.B) {
			sys, _ := benchSystem(b, nil)
			reg := baseline.NewRegistry(sys)
			reg.SetEventDriven(on)
			for i := 0; i < 6; i++ {
				reg.RegisterRange(geom.RectWH(2+float64(i)*10, 11, 8, 2), 0.5)
			}
			reg.Evaluate() // the first evaluation always runs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Ingest(sys.Now()+1, nil) // a quiet second
				reg.Evaluate()
			}
		})
	}
}

// BenchmarkPTKNN measures the probabilistic threshold kNN evaluation.
func BenchmarkPTKNN(b *testing.B) {
	sys, _ := benchSystem(b, nil)
	q := geom.Pt(35, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.PTKNNQuery(q, 3, 0.3)
	}
}

// Micro-benchmarks of the hot paths.

// BenchmarkParticleStep measures one motion-model step of a full particle
// set on the kernel: a silent second with negative information off, so
// prediction is the only stage that runs.
func BenchmarkParticleStep(b *testing.B) {
	plan := floorplan.DefaultOffice()
	g := walkgraph.MustBuild(plan)
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := particle.DefaultConfig()
	cfg.UseNegativeInfo = false
	cfg.MaxCoastSeconds = 1 << 30 // keep coasting for any b.N
	f := particle.MustNew(cfg, g, dep)
	pool := particle.NewPool()
	src := rng.New(1)
	st := f.InitAt(src, 1, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AdvancePool(pool, src, st, nil, st.Time+1)
	}
}

// BenchmarkFilterRun measures a full Algorithm 2 run for one object with a
// two-device reading history.
func BenchmarkFilterRun(b *testing.B) {
	plan := floorplan.DefaultOffice()
	g := walkgraph.MustBuild(plan)
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	f := particle.MustNew(particle.DefaultConfig(), g, dep)
	pool := particle.NewPool()
	src := rng.New(1)
	entries := []model.AggregatedReading{
		{Object: 1, Reader: 2, Time: 0},
		{Object: 1, Reader: 2, Time: 1},
		{Object: 1, Reader: 2, Time: 2},
		{Object: 1, Reader: 3, Time: 10},
		{Object: 1, Reader: 3, Time: 11},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.RunPool(pool, src, 1, entries, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDijkstra measures a single-source shortest path over the office
// walking graph.
func BenchmarkDijkstra(b *testing.B) {
	g := walkgraph.MustBuild(floorplan.DefaultOffice())
	loc := g.NearestLocation(geom.Pt(35, 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.DistancesFromLocation(loc)
	}
}

// BenchmarkAnchorSnap measures nearest-anchor assignment.
func BenchmarkAnchorSnap(b *testing.B) {
	g := walkgraph.MustBuild(floorplan.DefaultOffice())
	idx := anchor.MustBuildIndex(g, anchor.DefaultSpacing)
	src := rng.New(1)
	locs := make([]walkgraph.Location, 1024)
	for i := range locs {
		e := g.Edge(walkgraph.EdgeID(src.Intn(g.NumEdges())))
		locs[i] = walkgraph.Location{Edge: e.ID, Offset: src.Uniform(0, e.Length)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Snap(locs[i%len(locs)])
	}
}

// BenchmarkRangeQueryEval measures Algorithm 3 against a populated table.
func BenchmarkRangeQueryEval(b *testing.B) {
	sys, _ := benchSystem(b, nil)
	tab := sys.Preprocess(sys.Collector().KnownObjects())
	win := geom.RectWH(10, 9, 10, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.RangeQueryOn(tab, win)
	}
}

// BenchmarkKNNQueryEval measures Algorithm 4 against a populated table.
func BenchmarkKNNQueryEval(b *testing.B) {
	sys, _ := benchSystem(b, nil)
	tab := sys.Preprocess(sys.Collector().KnownObjects())
	q := geom.Pt(35, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.KNNQueryOn(tab, q, 3)
	}
}
