package rfid

import (
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/walkgraph"
)

// coveringReaderBrute is the pre-grid linear scan, kept verbatim as the
// reference the grid answers must match bit-for-bit.
func coveringReaderBrute(d *Deployment, p geom.Point) (model.ReaderID, bool) {
	best := model.NoReader
	bestDist := 0.0
	for _, r := range d.readers {
		dist := r.Pos.Dist(p)
		if dist <= r.Range && (best == model.NoReader || dist < bestDist) {
			best, bestDist = r.ID, dist
		}
	}
	return best, best != model.NoReader
}

// randomDeployment builds a random floorplan, its walking graph, and a
// uniform deployment whose size and range vary with the trial index.
func randomDeployment(t *testing.T, src *rng.Source, trial int) (*walkgraph.Graph, *Deployment) {
	t.Helper()
	plan := floorplan.RandomOffice(src, 1+trial%3)
	g, err := walkgraph.Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	readers := 3 + trial%17
	actRange := 1.0 + 0.1*float64(trial%20)
	dep, err := DeployUniform(plan, readers, actRange)
	if err != nil {
		t.Fatal(err)
	}
	return g, dep
}

// stairwellDeployment is the two-story office with the uniform deployment
// plus readers at both ends and the middle of every stairwell link, so link
// edges sit inside activation ranges.
func stairwellDeployment(t *testing.T) (*walkgraph.Graph, *Deployment) {
	t.Helper()
	plan := floorplan.TwoStoryOffice()
	g, err := walkgraph.Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	readers := append([]Reader(nil), MustDeployUniform(plan, DefaultReaders, DefaultActivationRange).Readers()...)
	for _, l := range plan.Links() {
		for _, p := range []geom.Point{l.A, l.B, l.A.Lerp(l.B, 0.5)} {
			readers = append(readers, Reader{Pos: p, Range: DefaultActivationRange})
		}
	}
	return g, NewDeployment(readers)
}

// TestCoverageMatchesGeometry is the equivalence property test of the
// edge-coverage index's two production predicates, BatchDetectableBy (the
// reweight) and BatchDetectableAny (the negative update): on 50 random
// floorplans and the two-story office with readers on its stairwells, they
// must equal the 2-D geometry exactly — inside the reader's range (any
// healthy reader's, for Any), outside every room, off every stairwell link —
// for uniformly random offsets including out-of-range ones, offsets at and
// a few float steps around every activation-interval endpoint and door
// position, and every point of every link edge, with all readers healthy
// and with a non-nil unhealthy mask.
func TestCoverageMatchesGeometry(t *testing.T) {
	var roomExcluded, linkExcluded int
	for trial := 0; trial <= 50; trial++ {
		src := rng.New(int64(1000 + trial))
		var g *walkgraph.Graph
		var dep *Deployment
		if trial < 50 {
			g, dep = randomDeployment(t, src, trial)
		} else {
			g, dep = stairwellDeployment(t)
		}
		cov := BuildCoverage(g, dep)

		var locs []walkgraph.Location
		// Uniformly random locations, including offsets slightly out of
		// range to exercise the endpoint clamping.
		for i := 0; i < 200; i++ {
			e := g.Edges()[src.Intn(g.NumEdges())]
			locs = append(locs, walkgraph.Location{Edge: e.ID, Offset: src.Uniform(-0.5, e.Length+0.5)})
		}
		near := func(e walkgraph.EdgeID, base float64) {
			for _, d := range []float64{0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-4, -1e-4} {
				locs = append(locs, walkgraph.Location{Edge: e, Offset: base + d})
			}
		}
		// Boundary-targeted locations: offsets at and within a few float
		// steps of every activation interval endpoint, where the index must
		// fall back to the exact geometric test, and of every door position,
		// where the room exclusion starts.
		for _, r := range dep.Readers() {
			circle := r.Circle()
			for _, e := range g.Edges() {
				if t0, t1, ok := circle.SegmentIntersection(g.EdgeSegment(e.ID)); ok {
					near(e.ID, t0*e.Length)
					near(e.ID, t1*e.Length)
				}
			}
		}
		for _, e := range g.Edges() {
			switch e.Kind {
			case walkgraph.DoorEdge:
				near(e.ID, e.DoorAt)
			case walkgraph.LinkEdge:
				for k := 0; k <= 20; k++ {
					locs = append(locs, walkgraph.Location{Edge: e.ID, Offset: e.Length * float64(k) / 20})
				}
			}
		}
		edge := make([]int32, len(locs))
		off := make([]float64, len(locs))
		for i, l := range locs {
			edge[i], off[i] = int32(l.Edge), l.Offset
		}
		out := make([]bool, len(locs))

		// detectable is the geometric predicate: covered by some reader in
		// rs, in no room, on no stairwell.
		detectable := func(loc walkgraph.Location, rs []Reader) bool {
			covered := false
			for _, r := range rs {
				covered = covered || r.Covers(g.Point(loc))
			}
			if !covered {
				return false
			}
			switch {
			case g.Edge(loc.Edge).Kind == walkgraph.LinkEdge:
				linkExcluded++
				return false
			case g.RoomAt(loc) != floorplan.NoRoom:
				roomExcluded++
				return false
			}
			return true
		}

		for _, r := range dep.Readers() {
			cov.BatchDetectableBy(r.ID, edge, off, out)
			for i, loc := range locs {
				if want := detectable(loc, []Reader{r}); out[i] != want {
					t.Fatalf("trial %d: BatchDetectableBy(%d) at %v = %v, geometric = %v",
						trial, r.ID, loc, out[i], want)
				}
			}
		}

		unhealthy := make([]bool, dep.NumReaders())
		unhealthy[src.Intn(len(unhealthy))] = true
		for i := range unhealthy {
			unhealthy[i] = unhealthy[i] || src.Bool(0.3)
		}
		for _, un := range [][]bool{nil, unhealthy} {
			var healthy []Reader
			for _, r := range dep.Readers() {
				if un == nil || !un[r.ID] {
					healthy = append(healthy, r)
				}
			}
			cov.BatchDetectableAny(edge, off, un, out)
			for i, loc := range locs {
				if want := detectable(loc, healthy); out[i] != want {
					t.Fatalf("trial %d: BatchDetectableAny(unhealthy %v) at %v = %v, geometric = %v",
						trial, un, loc, out[i], want)
				}
			}
		}
	}
	if roomExcluded == 0 || linkExcluded == 0 {
		t.Fatalf("exclusions not exercised: %d covered room locations, %d covered link locations",
			roomExcluded, linkExcluded)
	}
}

// TestCoveringReaderGridMatchesBrute checks the reader grid against the
// linear scan on arbitrary 2-D points (the sensor path's queries are true
// positions off the hallway centerline, not graph locations).
func TestCoveringReaderGridMatchesBrute(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		src := rng.New(int64(2000 + trial))
		_, dep := randomDeployment(t, src, trial)
		if dep.grid == nil {
			t.Fatalf("trial %d: constructor did not build the reader grid", trial)
		}
		bounds := dep.grid.bounds
		for i := 0; i < 500; i++ {
			// Sample beyond the grid bounds too: outside points must come
			// back uncovered.
			p := geom.Pt(
				src.Uniform(bounds.Min.X-5, bounds.Max.X+5),
				src.Uniform(bounds.Min.Y-5, bounds.Max.Y+5),
			)
			wantID, wantOK := coveringReaderBrute(dep, p)
			gotID, gotOK := dep.CoveringReader(p)
			if gotID != wantID || gotOK != wantOK {
				t.Fatalf("trial %d: CoveringReader(%v) = (%d, %v), brute = (%d, %v)",
					trial, p, gotID, gotOK, wantID, wantOK)
			}
		}
		// Points right on activation circle boundaries.
		for _, r := range dep.Readers() {
			for _, d := range []float64{r.Range, r.Range - 1e-12, r.Range + 1e-12} {
				p := geom.Pt(r.Pos.X+d, r.Pos.Y)
				wantID, wantOK := coveringReaderBrute(dep, p)
				gotID, gotOK := dep.CoveringReader(p)
				if gotID != wantID || gotOK != wantOK {
					t.Fatalf("trial %d: boundary CoveringReader(%v) = (%d, %v), brute = (%d, %v)",
						trial, p, gotID, gotOK, wantID, wantOK)
				}
			}
		}
	}
}

// TestInitIntervalsMatchSeedSemantics pins ComputeInitIntervals (and the
// cached copies served by the index) to the original InitAt interval
// computation, re-implemented here verbatim.
func TestInitIntervalsMatchSeedSemantics(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		src := rng.New(int64(3000 + trial))
		g, dep := randomDeployment(t, src, trial)
		cov := BuildCoverage(g, dep)
		for _, r := range dep.Readers() {
			circle := r.Circle()
			var wantIvs []InitInterval
			wantTotal := 0.0
			for _, e := range g.Edges() {
				t0, t1, ok := circle.SegmentIntersection(g.EdgeSegment(e.ID))
				if !ok {
					continue
				}
				lo, hi := t0*e.Length, t1*e.Length
				if e.Kind == walkgraph.LinkEdge {
					continue
				}
				if e.Kind == walkgraph.DoorEdge && hi > e.DoorAt {
					hi = e.DoorAt
				}
				if hi-lo <= 0 {
					continue
				}
				wantIvs = append(wantIvs, InitInterval{Edge: e.ID, Lo: lo, Hi: hi, CumStart: wantTotal})
				wantTotal += hi - lo
			}
			gotIvs, gotTotal := cov.InitIntervals(r.ID)
			if gotTotal != wantTotal || len(gotIvs) != len(wantIvs) {
				t.Fatalf("trial %d reader %d: intervals (%d, total %v), want (%d, total %v)",
					trial, r.ID, len(gotIvs), gotTotal, len(wantIvs), wantTotal)
			}
			for i := range wantIvs {
				if gotIvs[i] != wantIvs[i] {
					t.Fatalf("trial %d reader %d: interval %d = %+v, want %+v",
						trial, r.ID, i, gotIvs[i], wantIvs[i])
				}
			}
		}
	}
}
