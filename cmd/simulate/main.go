// Command simulate runs the full pipeline live: simulated objects move
// through the default office, noisy RFID readings stream into the system,
// and at a fixed cadence the tool issues one range query and one kNN query,
// printing the particle filter's answers next to the ground truth.
//
// Usage:
//
//	simulate                       # 60 s with defaults
//	simulate -objects 50 -seconds 300 -interval 15 -k 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/viz"
)

func main() {
	var (
		objects  = flag.Int("objects", 30, "number of moving objects")
		seconds  = flag.Int("seconds", 60, "seconds to simulate after warm-up")
		warmup   = flag.Int("warmup", 90, "warm-up seconds before the first query")
		interval = flag.Int("interval", 10, "seconds between queries")
		k        = flag.Int("k", 3, "k for the kNN query")
		seed     = flag.Int64("seed", 1, "random seed")
		record   = flag.String("record", "", "record prefix: writes <prefix>.plan.json, <prefix>.deployment.json, <prefix>.readings.jsonl")
		svgOut   = flag.String("svg", "", "write a final-state SVG snapshot (plan, readers, distributions, truth) to this file")
	)
	flag.Parse()

	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := engine.DefaultConfig()
	cfg.Seed = *seed
	sys, err := engine.New(plan, dep, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulate: %v\n", err)
		os.Exit(1)
	}
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = *objects
	simulator, err := sim.New(sys.Graph(), rfid.NewSensor(dep), tc, *seed+7)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulate: %v\n", err)
		os.Exit(1)
	}

	var rec *recorder
	if *record != "" {
		rec, err = newRecorder(*record, plan, dep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simulate: %v\n", err)
			os.Exit(1)
		}
		defer rec.close()
	}

	fmt.Printf("simulating %d objects, %d readers, warm-up %d s\n", *objects, dep.NumReaders(), *warmup)
	for i := 0; i < *warmup; i++ {
		t, raws := simulator.Step()
		sys.Ingest(t, raws)
		rec.write(raws)
	}

	src := rng.New(*seed + 99)
	for elapsed := 0; elapsed < *seconds; elapsed += *interval {
		for i := 0; i < *interval; i++ {
			t, raws := simulator.Step()
			sys.Ingest(t, raws)
			rec.write(raws)
		}
		now := sys.Now()

		// A random 2%-area window.
		area := plan.TotalArea() * 0.02
		w := 8.0
		h := area / w
		b := plan.Bounds()
		win := geom.RectWH(src.Uniform(b.Min.X, b.Max.X-w), src.Uniform(b.Min.Y, b.Max.Y-h), w, h)
		truth := simulator.TrueRange(win)
		rs := sys.RangeQuery(win)
		fmt.Printf("\n[t=%4d] RANGE %v\n", now, win)
		fmt.Printf("  truth: %v\n", truth)
		fmt.Printf("  answer (top by probability):\n")
		for _, op := range topPairs(rs, 5) {
			marker := " "
			for _, o := range truth {
				if o == op.obj {
					marker = "*"
				}
			}
			fmt.Printf("   %s o%-3d p=%.2f\n", marker, op.obj, op.p)
		}

		// A kNN query from a random hallway point.
		d := src.Uniform(0, plan.TotalHallwayLength())
		pt, _ := plan.PointOnHallway(d)
		ktruth := simulator.TrueKNN(pt, *k)
		krs := sys.KNNQuery(pt, *k)
		returned := query.TopKObjects(krs, *k)
		fmt.Printf("[t=%4d] %dNN at %v\n", now, *k, pt)
		fmt.Printf("  truth: %v  answer: %v  hit-rate: %.2f\n",
			ktruth, returned, metrics.HitRate(krs.Objects(), ktruth))
	}
	if *svgOut != "" {
		if err := writeSnapshot(*svgOut, sys, simulator, plan, dep); err != nil {
			fmt.Fprintf(os.Stderr, "simulate: svg: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote snapshot to %s\n", *svgOut)
	}
	hits, misses := sys.CacheStats()
	fmt.Printf("\ncache: %d hits, %d misses\n", hits, misses)
	if rec != nil {
		fmt.Printf("recorded %d raw readings to %s.readings.jsonl\n", rec.count, *record)
	}
}

// recorder persists the plan, deployment, and raw reading stream so
// cmd/replay can re-process the session offline.
type recorder struct {
	f     *os.File
	enc   *json.Encoder
	count int
}

func newRecorder(prefix string, plan *floorplan.Plan, dep *rfid.Deployment) (*recorder, error) {
	planData, err := json.MarshalIndent(plan, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(prefix+".plan.json", planData, 0o644); err != nil {
		return nil, err
	}
	depData, err := json.MarshalIndent(dep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(prefix+".deployment.json", depData, 0o644); err != nil {
		return nil, err
	}
	f, err := os.Create(prefix + ".readings.jsonl")
	if err != nil {
		return nil, err
	}
	return &recorder{f: f, enc: json.NewEncoder(f)}, nil
}

func (r *recorder) write(raws []model.RawReading) {
	if r == nil {
		return
	}
	for _, raw := range raws {
		if err := r.enc.Encode(raw); err != nil {
			fmt.Fprintf(os.Stderr, "simulate: record: %v\n", err)
			os.Exit(1)
		}
		r.count++
	}
}

func (r *recorder) close() {
	if r != nil {
		r.f.Close()
	}
}

// writeSnapshot renders the final system state: the plan and deployment,
// every object's inferred distribution, and the true positions.
func writeSnapshot(path string, sys *engine.System, world *sim.Simulator, plan *floorplan.Plan, dep *rfid.Deployment) error {
	c := viz.NewCanvas(plan, 10)
	c.DrawPlan(plan)
	c.DrawDeployment(dep)
	tab := sys.Preprocess(sys.Collector().KnownObjects())
	colors := []string{"#d62728", "#ff7f0e", "#9467bd", "#17becf", "#bcbd22", "#e377c2"}
	for i, obj := range sys.Collector().KnownObjects() {
		c.DrawDistribution(sys.AnchorIndex(), tab.DistributionOf(obj), colors[i%len(colors)])
	}
	truth := make(map[model.ObjectID]geom.Point)
	for _, o := range world.Objects() {
		truth[o] = world.TruePosition(o)
	}
	c.DrawObjects(truth, "#333333")
	return os.WriteFile(path, []byte(c.SVG()), 0o644)
}

type objProb struct {
	obj model.ObjectID
	p   float64
}

func topPairs(rs model.ResultSet, n int) []objProb {
	out := make([]objProb, 0, len(rs))
	for o, p := range rs {
		out = append(out, objProb{obj: o, p: p})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].p != out[j].p {
			return out[i].p > out[j].p
		}
		return out[i].obj < out[j].obj
	})
	if n > len(out) {
		n = len(out)
	}
	return out[:n]
}
