package main

import (
	"math"
	"strconv"
	"time"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/walkgraph"
)

type opKind int

const (
	opIngest opKind = iota
	opRange
	opKNN
	opOccupancy
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"ingest", "range", "knn", "occupancy"}[k]
}

// op is one HTTP operation of a workload script, generated ahead of the
// send loop together with the ground truth it will be scored against.
type op struct {
	kind opKind
	// t is the batch second of an ingest, or the stream second a query's
	// ground truth was taken at.
	t model.Time
	// due is the send time of an open-loop op as an offset from the start of
	// the measured section.
	due time.Duration

	body     []byte             // ingest: the encoded model.Batch
	readings []model.RawReading // ingest: the decoded form, for the layer probes
	path     string             // query: path and parameters
	window   geom.Rect          // range
	point    geom.Point         // knn
	k        int                // knn
	truth    []model.ObjectID   // range: sim.TrueRange; knn: sim.TrueKNN
	// scored marks a query inside the fixed accuracy prefix of a closed-loop
	// script (open-loop queries are scored when the stream clock is known).
	scored bool
}

// generator owns the simulator, and therefore the ground truth. It is the
// only consumer of the workload seed: the server under test sees nothing
// but the generated requests.
type generator struct {
	w      workload
	plan   *floorplan.Plan
	dep    *rfid.Deployment
	world  *sim.Simulator
	qsrc   *rng.Source
	bounds geom.Rect
	units  int // units generated so far (closed-loop cycles or open-loop stream seconds)
	nq     int // open-loop queries generated so far, for range/knn alternation
}

func newGenerator(w workload, seed int64) *generator {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = w.objects
	return &generator{
		w:      w,
		plan:   plan,
		dep:    dep,
		world:  sim.MustNew(walkgraph.MustBuild(plan), rfid.NewSensor(dep), tc, seed),
		qsrc:   rng.Derive(seed, 0x9e3779b9),
		bounds: plan.Bounds(),
	}
}

func (g *generator) ingestOp() op {
	t, raws := g.world.Step()
	return op{kind: opIngest, t: t, body: encodeBatch(t, raws), readings: raws}
}

// encodeBatch writes the document json.Marshal(model.Batch{...}) would, by
// hand: the generator shares two cores with the server under test, and
// reflection-driven encoding of ~2000 readings a batch was a third of its
// CPU. TestEncodeBatch holds the two forms equal.
func encodeBatch(t model.Time, raws []model.RawReading) []byte {
	b := make([]byte, 0, 32+len(raws)*48)
	b = append(b, `{"time":`...)
	b = strconv.AppendInt(b, int64(t), 10)
	b = append(b, `,"readings":[`...)
	for i, r := range raws {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"Object":`...)
		b = strconv.AppendInt(b, int64(r.Object), 10)
		b = append(b, `,"Reader":`...)
		b = strconv.AppendInt(b, int64(r.Reader), 10)
		b = append(b, `,"Time":`...)
		b = strconv.AppendInt(b, int64(r.Time), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// round3 keeps three decimals so the value formatted into the URL parses
// back to the very float the ground truth was computed with.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func (g *generator) rangeOp() op {
	b := g.bounds
	x := round3(g.qsrc.Uniform(b.Min.X, math.Max(b.Min.X, b.Max.X-g.w.rangeW)))
	y := round3(g.qsrc.Uniform(b.Min.Y, math.Max(b.Min.Y, b.Max.Y-g.w.rangeH)))
	win := geom.RectWH(x, y, g.w.rangeW, g.w.rangeH)
	return op{
		kind:   opRange,
		t:      g.world.Now(),
		path:   "/range?x=" + ftoa(x) + "&y=" + ftoa(y) + "&w=" + ftoa(g.w.rangeW) + "&h=" + ftoa(g.w.rangeH),
		window: win,
		truth:  g.world.TrueRange(win),
	}
}

func (g *generator) knnOp() op {
	pt, _ := g.plan.PointOnHallway(g.qsrc.Uniform(0, g.plan.TotalHallwayLength()))
	pt = geom.Pt(round3(pt.X), round3(pt.Y))
	return op{
		kind:  opKNN,
		t:     g.world.Now(),
		path:  "/knn?x=" + ftoa(pt.X) + "&y=" + ftoa(pt.Y) + "&k=" + strconv.Itoa(g.w.k),
		point: pt,
		k:     g.w.k,
		truth: g.world.TrueKNN(pt, g.w.k),
	}
}

func (g *generator) occupancyOp() op {
	return op{kind: opOccupancy, t: g.world.Now(), path: "/occupancy"}
}

// warmup returns the set-up script: warmupSeconds of stream, then the first
// query of each type the workload issues (which pay the cold filter runs).
func (g *generator) warmup() []op {
	ops := make([]op, 0, warmupSeconds+3)
	for i := 0; i < warmupSeconds; i++ {
		ops = append(ops, g.ingestOp())
	}
	ops = append(ops, g.rangeOp(), g.knnOp())
	if g.w.occupancy {
		ops = append(ops, g.occupancyOp())
	}
	return ops
}

// unit returns the next unit of the measured script. Closed loop: one cycle
// (ingestPerCycle stream seconds, queriesPerCycle times /range and /knn,
// optionally /occupancy).
// Open loop: one stream second — the batch, due at the start of its wall
// slot, and the slot's share of queries, the slot's ops evenly spaced.
func (g *generator) unit() []op {
	i := g.units
	g.units++
	if !g.w.open {
		ops := make([]op, 0, g.w.ingestPerCycle+2*g.w.queriesPerCycle+1)
		for j := 0; j < g.w.ingestPerCycle; j++ {
			ops = append(ops, g.ingestOp())
		}
		for j := 0; j < g.w.queriesPerCycle; j++ {
			r, k := g.rangeOp(), g.knnOp()
			r.scored, k.scored = i < g.w.accCycles, i < g.w.accCycles
			ops = append(ops, r, k)
		}
		if g.w.occupancy {
			ops = append(ops, g.occupancyOp())
		}
		return ops
	}
	slot := time.Second / time.Duration(g.w.streamRate)
	start := time.Duration(i) * slot
	perSlot := g.w.qps / g.w.streamRate
	ops := make([]op, 0, 1+perSlot)
	in := g.ingestOp()
	in.due = start
	ops = append(ops, in)
	for j := 0; j < perSlot; j++ {
		var q op
		if g.nq%2 == 0 {
			q = g.rangeOp()
		} else {
			q = g.knnOp()
		}
		g.nq++
		q.due = start + time.Duration(float64(j+1)/float64(perSlot+1)*float64(slot))
		ops = append(ops, q)
	}
	return ops
}
