package particle

import (
	"maps"
	"math"
	"testing"

	"repro/internal/anchor"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/walkgraph"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

func TestConfigValidateRejections(t *testing.T) {
	base := DefaultConfig()
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero particles", func(c *Config) { c.Ns = 0 }},
		{"negative speed mean", func(c *Config) { c.SpeedMean = -1 }},
		{"negative speed std", func(c *Config) { c.SpeedStd = -0.1 }},
		{"zero min speed", func(c *Config) { c.MinSpeed = 0 }},
		{"max below min speed", func(c *Config) { c.MaxSpeed = 0.01 }},
		{"exit prob above one", func(c *Config) { c.RoomExitProb = 1.5 }},
		{"low >= high weight", func(c *Config) { c.LowWeight = 2 }},
		{"negative coast", func(c *Config) { c.MaxCoastSeconds = -1 }},
		{"unknown resampler", func(c *Config) { c.Resample = Multinomial + 1 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestNormalizeWeights(t *testing.T) {
	w := []float64{2, 6}
	normalize(w)
	if math.Abs(w[0]-0.25) > 1e-12 || math.Abs(w[1]-0.75) > 1e-12 {
		t.Errorf("normalized = %v", w)
	}
	// All-zero weights reset to uniform.
	w = []float64{0, 0, 0, 0}
	normalize(w)
	for _, x := range w {
		if math.Abs(x-0.25) > 1e-12 {
			t.Errorf("zero-weight reset = %v", x)
		}
	}
}

// effectiveSampleSize is the two-pass definition of the ESS normalize
// returns: 1 / sum(w^2) over weights that already sum to one.
func effectiveSampleSize(w []float64) float64 {
	sq := 0.0
	for i := range w {
		sq += w[i] * w[i]
	}
	if sq == 0 {
		return 0
	}
	return 1 / sq
}

// TestNormalizeReturnsESS: the ESS normalize computes in its dividing pass
// has exactly the bits of the two-pass definition over the weights it
// leaves behind, for random weights and for the all-zero reset.
func TestNormalizeReturnsESS(t *testing.T) {
	src := rng.New(11)
	for trial := 0; trial < 200; trial++ {
		w := make([]float64, 1+src.Intn(100))
		for i := range w {
			if trial%50 != 0 {
				w[i] = src.Uniform(0, 1) * float64(1+src.Intn(1000))
			}
		}
		got := normalize(w)
		if want := effectiveSampleSize(w); got != want {
			t.Fatalf("trial %d: normalize returned ESS %v, two-pass ESS %v", trial, got, want)
		}
	}
}

func TestEffectiveSampleSize(t *testing.T) {
	if got := effectiveSampleSize([]float64{0.25, 0.25, 0.25, 0.25}); math.Abs(got-4) > 1e-9 {
		t.Errorf("uniform ESS = %v, want 4", got)
	}
	if got := effectiveSampleSize([]float64{1, 0, 0}); math.Abs(got-1) > 1e-9 {
		t.Errorf("degenerate ESS = %v, want 1", got)
	}
	if effectiveSampleSize(nil) != 0 {
		t.Error("empty ESS should be 0")
	}
}

// resampleParticles runs the kernel's resampler (Config.Resample = r) over
// ps, whose weights the caller normalized, and returns the resampled set.
func resampleParticles(r Resampler, src *rng.Source, ps []Particle) []Particle {
	f := &Filter{cfg: Config{Resample: r}}
	var pool Pool
	st := FromParticles(0, ps)
	pool.ensure(st.Len())
	f.resampleSoA(&pool, st, src, nil)
	return st.Particles()
}

// normalized returns ps with weights scaled to sum to one.
func normalized(ps []Particle) []Particle {
	total := 0.0
	for _, p := range ps {
		total += p.Weight
	}
	for i := range ps {
		ps[i].Weight /= total
	}
	return ps
}

func TestSystematicResamplePreservesCountAndWeights(t *testing.T) {
	src := rng.New(1)
	ps := make([]Particle, 100)
	for i := range ps {
		ps[i].Loc = walkgraph.Location{Edge: walkgraph.EdgeID(i)}
		ps[i].Weight = float64(i)
	}
	out := resampleParticles(Systematic, src, normalized(ps))
	if len(out) != 100 {
		t.Fatalf("count = %d", len(out))
	}
	for _, p := range out {
		if math.Abs(p.Weight-0.01) > 1e-12 {
			t.Fatalf("output weight = %v, want 0.01", p.Weight)
		}
	}
}

func TestSystematicEliminatesZeroWeight(t *testing.T) {
	src := rng.New(2)
	// Particle 0 has zero weight; it must never survive.
	ps := []Particle{
		{Loc: walkgraph.Location{Edge: 0}, Weight: 0},
		{Loc: walkgraph.Location{Edge: 1}, Weight: 0.5},
		{Loc: walkgraph.Location{Edge: 2}, Weight: 0.5},
	}
	for trial := 0; trial < 100; trial++ {
		for _, p := range resampleParticles(Systematic, src, ps) {
			if p.Loc.Edge == 0 {
				t.Fatal("zero-weight particle survived systematic resampling")
			}
		}
	}
}

func TestSystematicReplicationProportional(t *testing.T) {
	src := rng.New(3)
	// Systematic resampling with Ns=100 should give 75 +/- 1 copies of the
	// heavy particle on every draw. The heavy block is contiguous: with a
	// periodic weight arrangement systematic resampling aliases against its
	// fixed probe spacing (a documented property, not a bug).
	big := make([]Particle, 100)
	for i := range big {
		if i < 50 {
			big[i] = Particle{Loc: walkgraph.Location{Edge: 0}, Weight: 0.75}
		} else {
			big[i] = Particle{Loc: walkgraph.Location{Edge: 1}, Weight: 0.25}
		}
	}
	heavy := 0
	for _, p := range resampleParticles(Systematic, src, normalized(big)) {
		if p.Loc.Edge == 0 {
			heavy++
		}
	}
	if heavy < 74 || heavy > 76 {
		t.Errorf("heavy copies = %d, want 75 +/- 1", heavy)
	}
}

func TestMultinomialResample(t *testing.T) {
	src := rng.New(4)
	ps := []Particle{
		{Loc: walkgraph.Location{Edge: 0}, Weight: 0},
		{Loc: walkgraph.Location{Edge: 1}, Weight: 1},
	}
	out := resampleParticles(Multinomial, src, ps)
	if len(out) != 2 {
		t.Fatalf("count = %d", len(out))
	}
	for _, p := range out {
		if p.Loc.Edge == 0 {
			t.Fatal("zero-weight particle survived multinomial resampling")
		}
		if p.Weight != 0.5 {
			t.Fatalf("weight = %v", p.Weight)
		}
	}
	if len(resampleParticles(Systematic, src, nil)) != 0 || len(resampleParticles(Multinomial, src, nil)) != 0 {
		t.Error("empty input should stay empty")
	}
}

func TestStateClone(t *testing.T) {
	st := FromParticles(1, []Particle{{Speed: 1}})
	st.Time = 5
	c := st.Clone()
	c.cols().speed[0] = 9
	c.Time = 99
	if st.Particles()[0].Speed != 1 || st.Time != 5 {
		t.Error("Clone aliases original")
	}
}

// corridor builds a 40 m hallway with three readers (the paper's Figure 1
// setting: d1, d2, d3 partitioning the hallway) and two side rooms.
func corridor(t *testing.T) (*walkgraph.Graph, *rfid.Deployment) {
	t.Helper()
	b := floorplan.NewBuilder()
	h := b.AddHallway("h", geom.Seg(geom.Pt(0, 10), geom.Pt(40, 10)), 2)
	b.AddRoom("R3", geom.RectWH(12, 3, 6, 6), h)  // south, near d1-d2
	b.AddRoom("R7", geom.RectWH(24, 11, 6, 6), h) // north, near d2-d3
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := walkgraph.MustBuild(plan)
	dep := rfid.NewDeployment([]rfid.Reader{
		{Pos: geom.Pt(10, 10), Range: 2},
		{Pos: geom.Pt(20, 10), Range: 2},
		{Pos: geom.Pt(30, 10), Range: 2},
	})
	return g, dep
}

func TestInitAtPlacesParticlesInRange(t *testing.T) {
	g, dep := corridor(t)
	f := MustNew(DefaultConfig(), g, dep)
	src := rng.New(5)
	st := f.InitAt(src, 1, 1, 0)
	if len(st.Particles()) != 64 {
		t.Fatalf("particles = %d", len(st.Particles()))
	}
	reader := dep.Reader(1)
	for _, p := range st.Particles() {
		if !reader.Covers(g.Point(p.Loc)) {
			t.Fatalf("particle at %v outside reader range", g.Point(p.Loc))
		}
		if p.Speed < 0.1 || p.Speed > 2.5 {
			t.Fatalf("speed %v out of bounds", p.Speed)
		}
		if p.Weight != 1.0/64 {
			t.Fatalf("initial weight %v", p.Weight)
		}
	}
}

// stepOne moves one particle one second through the kernel's motion model.
func stepOne(f *Filter, src *rng.Source, p *Particle) {
	st := FromParticles(0, []Particle{*p})
	f.predictSoA(st, src)
	*p = st.Particles()[0]
}

func TestStepMovesAtSpeed(t *testing.T) {
	g, dep := corridor(t)
	f := MustNew(DefaultConfig(), g, dep)
	src := rng.New(6)
	// Put a particle mid-hallway on a long edge, heading to B.
	var e walkgraph.Edge
	for _, cand := range g.Edges() {
		if cand.Kind == walkgraph.HallwayEdge && cand.Length > 5 {
			e = cand
			break
		}
	}
	p := Particle{Loc: walkgraph.Location{Edge: e.ID, Offset: 1}, Toward: e.B, Speed: 1.2}
	stepOne(f, src, &p)
	if math.Abs(p.Loc.Offset-2.2) > 1e-9 {
		t.Errorf("offset = %v, want 2.2", p.Loc.Offset)
	}
	// Heading to A decreases the offset.
	p = Particle{Loc: walkgraph.Location{Edge: e.ID, Offset: 3}, Toward: e.A, Speed: 1.0}
	stepOne(f, src, &p)
	if math.Abs(p.Loc.Offset-2.0) > 1e-9 {
		t.Errorf("offset = %v, want 2.0", p.Loc.Offset)
	}
}

func TestStepEntersRoomAndRests(t *testing.T) {
	g, dep := corridor(t)
	f := MustNew(DefaultConfig(), g, dep)
	src := rng.New(7)
	// Find room 0's door edge and walk a particle into the room.
	var door walkgraph.Edge
	for _, e := range g.Edges() {
		if e.Kind == walkgraph.DoorEdge && e.Room == 0 {
			door = e
		}
	}
	roomEnd := door.B
	if g.Node(roomEnd).Kind != walkgraph.RoomCenter {
		roomEnd = door.A
	}
	p := Particle{Loc: walkgraph.Location{Edge: door.ID, Offset: door.Length / 2}, Toward: roomEnd, Speed: 100}
	stepOne(f, src, &p)
	if !p.Resting {
		t.Fatal("particle did not rest on reaching the room node")
	}
	if g.RoomAt(p.Loc) != 0 {
		t.Fatalf("resting particle not in room 0: %v", p.Loc)
	}
}

func TestRestingParticleLeavesAtConfiguredRate(t *testing.T) {
	g, dep := corridor(t)
	f := MustNew(DefaultConfig(), g, dep)
	var door walkgraph.Edge
	for _, e := range g.Edges() {
		if e.Kind == walkgraph.DoorEdge && e.Room == 0 {
			door = e
		}
	}
	src := rng.New(8)
	exits := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		p := Particle{
			Loc:     walkgraph.Location{Edge: door.ID, Offset: door.Length},
			Toward:  door.B,
			Speed:   1,
			Resting: true,
		}
		stepOne(f, src, &p)
		if !p.Resting {
			exits++
		}
	}
	rate := float64(exits) / trials
	if math.Abs(rate-0.1) > 0.01 {
		t.Errorf("room exit rate = %v, want ~0.1", rate)
	}
}

func TestNoUTurnAtJunctions(t *testing.T) {
	g, dep := corridor(t)
	f := MustNew(DefaultConfig(), g, dep)
	src := rng.New(9)
	// A junction with degree >= 2: arriving there must never bounce straight
	// back along the arrival edge.
	var junction walkgraph.NodeID = walkgraph.NoNode
	for _, n := range g.Nodes() {
		if n.Kind == walkgraph.Junction && g.Degree(n.ID) >= 2 {
			junction = n.ID
			break
		}
	}
	if junction == walkgraph.NoNode {
		t.Fatal("no junction found")
	}
	arrival := g.IncidentEdges(junction)[0]
	for trial := 0; trial < 200; trial++ {
		p := Particle{
			Loc:    locationAtNode(g, arrival, g.OtherEnd(arrival, junction)),
			Toward: junction,
			Speed:  0.5,
		}
		// Place just short of the junction and step over it.
		edge := g.Edge(arrival)
		if p.Toward == edge.B {
			p.Loc.Offset = edge.Length - 0.1
		} else {
			p.Loc.Offset = 0.1
		}
		stepOne(f, src, &p)
		if p.Loc.Edge == arrival && !p.Resting {
			// Allow it only if it moved past and came back through another
			// node, impossible at speed 0.5 in 1 s here.
			t.Fatalf("U-turn onto arrival edge at junction (trial %d)", trial)
		}
	}
}

func TestDeadEndReverses(t *testing.T) {
	g, dep := corridor(t)
	f := MustNew(DefaultConfig(), g, dep)
	src := rng.New(10)
	// West end of the hallway (0,10) is a dead end with one incident edge.
	var deadEnd walkgraph.NodeID = walkgraph.NoNode
	for _, n := range g.Nodes() {
		if n.Kind == walkgraph.Junction && g.Degree(n.ID) == 1 {
			deadEnd = n.ID
			break
		}
	}
	if deadEnd == walkgraph.NoNode {
		t.Fatal("no dead end found")
	}
	e := g.IncidentEdges(deadEnd)[0]
	p := Particle{Loc: locationAtNode(g, e, g.OtherEnd(e, deadEnd)), Toward: deadEnd, Speed: 1}
	edge := g.Edge(e)
	if p.Toward == edge.B {
		p.Loc.Offset = edge.Length - 0.3
	} else {
		p.Loc.Offset = 0.3
	}
	stepOne(f, src, &p)
	if p.Toward != g.OtherEnd(e, deadEnd) {
		t.Errorf("particle did not reverse at dead end: toward %v", p.Toward)
	}
}

// TestFilterLearnsDirection reproduces the paper's Figure 1 narrative: a tag
// seen at d2 and then d3 must afterwards be predicted ahead of d3 (the
// direction of travel), not behind it.
func TestFilterLearnsDirection(t *testing.T) {
	g, dep := corridor(t)
	f := MustNew(DefaultConfig(), g, dep)
	src := rng.New(11)

	var entries []model.AggregatedReading
	for _, tt := range []struct {
		t  model.Time
		rd model.ReaderID
	}{
		{0, 1}, {1, 1}, {2, 1}, // in d2's range (x ~ 18..22)
		{10, 2}, {11, 2}, {12, 2}, // in d3's range (x ~ 28..32)
	} {
		entries = append(entries, model.AggregatedReading{Object: 1, Reader: tt.rd, Time: tt.t})
	}
	st, err := f.RunPool(NewPool(), src, 1, entries, 16)
	if err != nil {
		t.Fatal(err)
	}
	if st.Time != 16 {
		t.Errorf("state time = %d, want 16", st.Time)
	}
	ahead, behind := 0, 0
	for _, p := range st.Particles() {
		x := g.Point(p.Loc).X
		if x > 30 {
			ahead++
		}
		if x < 28 {
			behind++
		}
	}
	if ahead <= behind*2 {
		t.Errorf("direction not learned: ahead=%d behind=%d", ahead, behind)
	}
}

func TestFilterDeterministicGivenSeed(t *testing.T) {
	g, dep := corridor(t)
	f := MustNew(DefaultConfig(), g, dep)
	entries := []model.AggregatedReading{
		{Object: 1, Reader: 1, Time: 0},
		{Object: 1, Reader: 2, Time: 10},
	}
	st1, err := f.RunPool(NewPool(), rng.New(42), 1, entries, 15)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := f.RunPool(NewPool(), rng.New(42), 1, entries, 15)
	if err != nil {
		t.Fatal(err)
	}
	for i := range st1.Particles() {
		if st1.Particles()[i] != st2.Particles()[i] {
			t.Fatalf("particle %d differs between equal-seed runs", i)
		}
	}
}

func TestFilterCoastLimit(t *testing.T) {
	g, dep := corridor(t)
	f := MustNew(DefaultConfig(), g, dep)
	src := rng.New(12)
	entries := []model.AggregatedReading{{Object: 1, Reader: 1, Time: 0}}
	// Last reading at t=0; the filter must stop at t=60 even when asked for
	// t=500.
	st, err := f.RunPool(NewPool(), src, 1, entries, 500)
	if err != nil {
		t.Fatal(err)
	}
	if st.Time != 60 {
		t.Errorf("state time = %d, want 60 (coast limit)", st.Time)
	}
	if st.LastReadingTime != 0 {
		t.Errorf("LastReadingTime = %d", st.LastReadingTime)
	}
}

func TestFilterNoReadingsError(t *testing.T) {
	g, dep := corridor(t)
	f := MustNew(DefaultConfig(), g, dep)
	if _, err := f.RunPool(NewPool(), rng.New(1), 1, nil, 10); err == nil {
		t.Fatal("expected error for empty readings")
	}
}

func TestFilterResamplesOnReadings(t *testing.T) {
	g, dep := corridor(t)
	f := MustNew(DefaultConfig(), g, dep)
	src := rng.New(13)
	entries := []model.AggregatedReading{
		{Object: 1, Reader: 1, Time: 0},
		{Object: 1, Reader: 2, Time: 10},
		{Object: 1, Reader: 2, Time: 11},
	}
	st, err := f.RunPool(NewPool(), src, 1, entries, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Right after reweight+resample on d3's reading, nearly all particles
	// should be inside (or very near) d3's activation range.
	reader := dep.Reader(2)
	near := 0
	for _, p := range st.Particles() {
		if g.Point(p.Loc).Dist(reader.Pos) < reader.Range+1.5 {
			near++
		}
	}
	if near < len(st.Particles())*3/4 {
		t.Errorf("only %d/%d particles near the detecting reader", near, len(st.Particles()))
	}
}

func TestAdvanceIncorporatesNewReadings(t *testing.T) {
	g, dep := corridor(t)
	f := MustNew(DefaultConfig(), g, dep)
	src := rng.New(14)
	entries := []model.AggregatedReading{{Object: 1, Reader: 1, Time: 0}}
	st, err := f.RunPool(NewPool(), src, 1, entries, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Time != 5 {
		t.Fatalf("time = %d", st.Time)
	}
	// New readings from d3 arrive; Advance must pull particles there.
	newEntries := []model.AggregatedReading{
		{Object: 1, Reader: 1, Time: 0}, // already processed: skipped
		{Object: 1, Reader: 2, Time: 10},
		{Object: 1, Reader: 2, Time: 11},
	}
	f.AdvancePool(NewPool(), src, st, newEntries, 11)
	if st.Time != 11 {
		t.Errorf("time after Advance = %d, want 11", st.Time)
	}
	if st.LastReadingTime != 11 {
		t.Errorf("LastReadingTime = %d, want 11", st.LastReadingTime)
	}
	reader := dep.Reader(2)
	near := 0
	for _, p := range st.Particles() {
		if g.Point(p.Loc).Dist(reader.Pos) < reader.Range+1.5 {
			near++
		}
	}
	if near < len(st.Particles())*3/4 {
		t.Errorf("Advance did not concentrate particles: %d near", near)
	}
}

func TestAnchorDistributionSumsToOne(t *testing.T) {
	g, dep := corridor(t)
	idx := anchor.MustBuildIndex(g, 1.0)
	f := MustNew(DefaultConfig(), g, dep)
	src := rng.New(15)
	entries := []model.AggregatedReading{
		{Object: 1, Reader: 1, Time: 0},
		{Object: 1, Reader: 2, Time: 10},
	}
	st, err := f.RunPool(NewPool(), src, 1, entries, 20)
	if err != nil {
		t.Fatal(err)
	}
	dist := st.AnchorDistribution(idx)
	total := 0.0
	for ap, p := range dist {
		if p <= 0 || p > 1 {
			t.Errorf("anchor %d has probability %v", ap, p)
		}
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("distribution total = %v", total)
	}
	// Empty state yields nil.
	empty := &State{}
	if empty.AnchorDistribution(idx) != nil {
		t.Error("empty state distribution not nil")
	}
}

// anchorDistributionOracle is the former map-accumulating AnchorDistribution.
func anchorDistributionOracle(st *State, idx *anchor.Index) map[anchor.ID]float64 {
	s := view(st)
	total := 0.0
	for i := range s.Particles {
		total += s.Particles[i].Weight
	}
	dist := make(map[anchor.ID]float64)
	if total <= 0 {
		u := 1.0 / float64(len(s.Particles))
		for i := range s.Particles {
			dist[idx.Snap(s.Particles[i].Loc)] += u
		}
		return dist
	}
	for i := range s.Particles {
		dist[idx.Snap(s.Particles[i].Loc)] += s.Particles[i].Weight / total
	}
	return dist
}

// TestAnchorDistMatchesOracle pins the dense-accumulator snap to the map it
// replaced, bit for bit, on resampled (uniform), reweighted (two-valued) and
// all-zero weight sets, with one accumulator reused across all of them.
func TestAnchorDistMatchesOracle(t *testing.T) {
	g, dep := corridor(t)
	idx := anchor.MustBuildIndex(g, 1.0)
	f := MustNew(DefaultConfig(), g, dep)
	var acc anchor.Accumulator
	for seed := int64(1); seed <= 30; seed++ {
		src := rng.New(seed)
		st, err := f.RunPool(NewPool(), src, 1, []model.AggregatedReading{
			{Object: 1, Reader: 1, Time: 0},
			{Object: 1, Reader: 2, Time: model.Time(5 + seed%10)},
		}, model.Time(10+seed))
		if err != nil {
			t.Fatal(err)
		}
		switch w := st.cols().weight; seed % 3 {
		case 1:
			for i := range w {
				w[i] = []float64{0.01, 1, 0}[src.Intn(3)]
			}
		case 2:
			clear(w)
		}
		want := anchorDistributionOracle(st, idx)
		for ap, p := range want {
			if p <= 0 {
				delete(want, ap) // the table never indexed zero mass
			}
		}
		got := st.AnchorDist(idx, &acc)
		if !maps.Equal(got.Map(), want) {
			t.Fatalf("seed %d: AnchorDist = %v, oracle %v", seed, got.Map(), want)
		}
		if !maps.Equal(st.AnchorDistribution(idx), want) {
			t.Fatalf("seed %d: AnchorDistribution adapter disagrees", seed)
		}
	}
}
