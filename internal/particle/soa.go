package particle

import (
	"math"
	"time"

	"repro/internal/anchor"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/walkgraph"
)

// This file is the structure-of-arrays particle kernel, the filter's only
// implementation of Algorithm 2: its inner loops run over flat parallel
// arrays (edge index, offset, heading, speed, resting bitset, weight) owned
// by a Pool, instead of a []Particle of 56-byte structs. Predict streams
// through five flat arrays, reweight hands whole batches to the coverage
// index (rfid.Coverage.BatchDetectableBy) and the negative update to the
// silence table of the installed reader-health set
// (rfid.SilenceTable.Detectable), resampling
// permutes arrays instead of structs, and roughening draws all speeds in one
// call. The arithmetic is bit-for-bit that of the paper's geometric,
// particle-by-particle formulation — same float operations in the same
// order, same random draws in the same order — which the package tests keep
// as the oracle (TestIndexedFilterMatchesGeometricBitForBit).
//
// The Pool is the reusable scratch for one object-at-a-time stepping. It is
// not safe for concurrent use; the engine keeps one per worker and reuses it
// across all objects the worker steps, so the arrays stay hot in cache and
// steady-state processing allocates nothing.

// Pool holds the flat particle arrays the SoA kernel steps, plus the back
// buffers resampling permutes into and the scratch the batch coverage
// predicates fill. A zero Pool is ready to use; arrays grow on demand and are
// retained across calls.
type Pool struct {
	// n is the live particle count; every array below is sliced to it.
	n int

	edge   []int32   // Particle.Loc.Edge
	offset []float64 // Particle.Loc.Offset
	toward []int32   // Particle.Toward
	speed  []float64 // Particle.Speed
	weight []float64 // Particle.Weight
	// resting packs Particle.Resting as a bitset, bit i = particle i.
	resting []uint64

	// Back buffers: resampling permutes the arrays above into these and
	// swaps. Weights need no back buffer — every resampled weight is the
	// same 1/Ns, so the live array is overwritten after the permutation.
	bedge    []int32
	boffset  []float64
	btoward  []int32
	bspeed   []float64
	bresting []uint64

	// covered is the output of the batch coverage predicates.
	covered []bool
	// cum is the resampler's prefix-sum scratch (cumulative weights with a
	// +Inf sentinel in the last slot, so the CDF walk needs one compare).
	cum []float64

	// owner/gen implement load elision: store stamps the state it wrote
	// with (pool, generation), and a later load for the same state with a
	// matching stamp finds the arrays already in sync. The generation
	// guards against the pool having served another state in between.
	owner *State
	gen   uint64

	// sched is the recycled detection schedule: (time, reader) pairs sorted
	// by time, deduplicated last-wins.
	sched []soaSched
}

type soaSched struct {
	t      model.Time
	reader model.ReaderID
}

// NewPool returns an empty Pool. Arrays are allocated lazily on first use.
func NewPool() *Pool { return &Pool{} }

// ensure sizes every array for n particles, reusing capacity, and sets the
// live count.
func (p *Pool) ensure(n int) {
	if n == p.n && len(p.edge) == n {
		return
	}
	if cap(p.edge) < n {
		p.edge = make([]int32, n)
		p.offset = make([]float64, n)
		p.toward = make([]int32, n)
		p.speed = make([]float64, n)
		p.weight = make([]float64, n)
		p.bedge = make([]int32, n)
		p.boffset = make([]float64, n)
		p.btoward = make([]int32, n)
		p.bspeed = make([]float64, n)
		p.covered = make([]bool, n)
		p.cum = make([]float64, n)
	} else {
		p.edge = p.edge[:n]
		p.offset = p.offset[:n]
		p.toward = p.toward[:n]
		p.speed = p.speed[:n]
		p.weight = p.weight[:n]
		p.bedge = p.bedge[:n]
		p.boffset = p.boffset[:n]
		p.btoward = p.btoward[:n]
		p.bspeed = p.bspeed[:n]
		p.covered = p.covered[:n]
		p.cum = p.cum[:n]
	}
	words := (n + 63) / 64
	if cap(p.resting) < words {
		p.resting = make([]uint64, words)
		p.bresting = make([]uint64, words)
	} else {
		p.resting = p.resting[:words]
		p.bresting = p.bresting[:words]
	}
	p.n = n
}

// load copies a State's particles into the flat arrays. When the state's
// residency stamp shows this pool already holds exactly these particles
// (the previous store wrote them and nothing else used the pool since), the
// copy is skipped.
func (p *Pool) load(st *State) {
	n := len(st.Particles)
	if st.soaPool == p && p.owner == st && st.soaGen == p.gen && p.n == n {
		return
	}
	p.ensure(n)
	resting := p.resting
	for i := range resting {
		resting[i] = 0
	}
	ps := st.Particles
	edge, offset, toward, speed, weight := p.edge[:n], p.offset[:n], p.toward[:n], p.speed[:n], p.weight[:n]
	for i := range ps {
		pt := &ps[i]
		edge[i] = int32(pt.Loc.Edge)
		offset[i] = pt.Loc.Offset
		toward[i] = int32(pt.Toward)
		speed[i] = pt.Speed
		weight[i] = pt.Weight
		if pt.Resting {
			resting[i>>6] |= 1 << uint(i&63)
		}
	}
}

// store copies the flat arrays back into the State's particle slice, reusing
// its capacity (the count can change when a recovery reinitialization ran
// under a different particle budget), and drops the state's memoized
// distribution, which described the particles before.
func (p *Pool) store(st *State) {
	n := p.n
	if cap(st.Particles) < n {
		st.Particles = make([]Particle, n)
	} else {
		st.Particles = st.Particles[:n]
	}
	ps := st.Particles
	edge, offset, toward, speed, weight, resting := p.edge[:n], p.offset[:n], p.toward[:n], p.speed[:n], p.weight[:n], p.resting
	for i := range ps {
		pt := &ps[i]
		pt.Loc.Edge = walkgraph.EdgeID(edge[i])
		pt.Loc.Offset = offset[i]
		pt.Toward = walkgraph.NodeID(toward[i])
		pt.Speed = speed[i]
		pt.Resting = resting[i>>6]&(1<<uint(i&63)) != 0
		pt.Weight = weight[i]
	}
	p.gen++
	p.owner = st
	st.soaPool = p
	st.soaGen = p.gen
	st.memoIdx, st.memo = nil, anchor.Dist{}
}

// RunPool executes the full Algorithm 2 for one object on the kernel, with
// pool as scratch: entries must be the object's aggregated readings from the
// collector (oldest first, covering at most its two most recent detecting
// devices). The filter initializes at the first entry's device and advances
// to min(lastReading + MaxCoastSeconds, now). It returns an error when there
// are no readings to start from. A nil pool runs on a throwaway one.
func (f *Filter) RunPool(pool *Pool, src *rng.Source, obj model.ObjectID, entries []model.AggregatedReading, now model.Time) (*State, error) {
	if len(entries) == 0 {
		return nil, errNoReadings(obj)
	}
	first := entries[0]
	st := f.InitAt(src, obj, first.Reader, first.Time)
	f.AdvancePool(pool, src, st, entries[1:], now)
	return st, nil
}

// AdvancePool resumes a cached state on the kernel, with pool as scratch: it
// incorporates entries newer than the state's time stamp and steps the
// particles up to min(lastReading + MaxCoastSeconds, now). Entries at or
// before the state's time are skipped. This is the cache-hit path of the
// cache management module. A call with no new detection and no second to
// step touches nothing but LastRun — not the pool, not the particles, not the
// memoized distribution. A nil pool runs on a throwaway one.
func (f *Filter) AdvancePool(pool *Pool, src *rng.Source, st *State, entries []model.AggregatedReading, now model.Time) {
	if pool == nil {
		f.advanceSoA(new(Pool), src, st, entries, now)
		st.soaPool = nil // the throwaway pool must not outlive the call
		return
	}
	f.advanceSoA(pool, src, st, entries, now)
}

// advanceSoA steps st second by second to min(td + coast, now), where td is
// the newest reading time, reweighting and resampling at every detected
// second: the paper's Algorithm 2, one stage at a time over the pool's flat
// arrays.
func (f *Filter) advanceSoA(p *Pool, src *rng.Source, st *State, entries []model.AggregatedReading, now model.Time) {
	// Build the detection schedule: (time, reader) pairs kept sorted by time
	// with last-write-wins on duplicates, read off in time order without a
	// per-second lookup. Entries arrive oldest-first, so the insert is an
	// append in practice.
	sched := p.sched[:0]
	td := st.LastReadingTime
	for _, e := range entries {
		if e.Time <= st.Time || !e.Detected() {
			continue
		}
		k := len(sched)
		for k > 0 && sched[k-1].t > e.Time {
			k--
		}
		if k > 0 && sched[k-1].t == e.Time {
			sched[k-1].reader = e.Reader
		} else {
			sched = append(sched, soaSched{})
			copy(sched[k+1:], sched[k:])
			sched[k] = soaSched{t: e.Time, reader: e.Reader}
		}
		if e.Time > td {
			td = e.Time
		}
	}
	p.sched = sched

	tmin := td + model.Time(f.cfg.MaxCoastSeconds)
	if now < tmin {
		tmin = now
	}
	if len(sched) == 0 && tmin <= st.Time {
		// Nothing to do: no new detection and no second to step, so td is
		// st.LastReadingTime and the particles, time stamps and memoized
		// distribution all stay exactly as they are. The particles being
		// unchanged, so is their ESS.
		st.LastRun = RunStats{From: st.Time, To: st.Time, ESS: st.LastRun.ESS}
		return
	}
	// Stage timing is gated on one bool so the serving kernel reads no
	// clock; time.Now and the histogram sinks allocate nothing, which keeps
	// the instrumented loop inside the zero-allocation contract too.
	timed := f.timed
	rs := RunStats{From: st.Time}
	var t0 time.Time
	p.load(st)
	cursor := 0
	for tj := st.Time + 1; tj <= tmin; tj++ {
		if timed {
			t0 = time.Now()
		}
		f.predictSoA(p, src)
		rs.Steps++
		if timed {
			rs.Predict += time.Since(t0)
		}
		for cursor < len(sched) && sched[cursor].t < tj {
			cursor++
		}
		var reader model.ReaderID
		detected := false
		if cursor < len(sched) && sched[cursor].t == tj {
			reader = sched[cursor].reader
			detected = true
			cursor++
		}
		if !detected {
			// The paper's reading.Device = null case. With negative
			// information enabled, silence is itself an observation: the
			// object is (almost surely) not inside any reader's range.
			if f.cfg.UseNegativeInfo {
				if timed {
					t0 = time.Now()
				}
				f.negativeUpdateSoA(p, src)
				if timed {
					rs.Reweight += time.Since(t0)
				}
			}
			continue
		}
		rs.Detections++
		if timed {
			t0 = time.Now()
		}
		// Reweight by the device sensing model: particles inside the
		// detecting reader's range, outside every room and stairwell (walls
		// block reads), get HighWeight, the rest LowWeight. The batch
		// coverage predicate decides which per particle; the weights
		// themselves are never materialized — normalization needs only their
		// sum, accumulated in index order, and the two normalized values go
		// straight to the resampler.
		f.cov.BatchDetectableBy(reader, p.edge, p.offset, p.covered)
		hw, lw := f.cfg.HighWeight, f.cfg.LowWeight
		// Select the addend by table index rather than by branch: the
		// covered flags are close to a coin flip here, so a branch would
		// mispredict constantly.
		wtab := [2]float64{lw, hw}
		hits := 0
		total := 0.0
		for _, c := range p.covered {
			k := 0
			if c {
				k = 1
			}
			hits += k
			total += wtab[k]
		}
		if timed {
			rs.Reweight += time.Since(t0)
		}
		if hits == 0 {
			// Degenerate observation: no particle is consistent with the
			// reading. Without intervention the filter would keep the wrong
			// cloud forever (all weights equally low), so recover by
			// reinitializing within the detecting reader's range — the
			// standard kidnapped-robot recovery, in place and allocation-free.
			f.initSoA(p, src, reader)
			continue
		}
		if timed {
			t0 = time.Now()
		}
		f.resampleSoA(p, src, &[2]float64{lw / total, hw / total})
		f.roughenSoA(p, src)
		rs.Resamples++
		if timed {
			rs.Resample += time.Since(t0)
		}
	}
	p.store(st)
	if tmin > st.Time {
		st.Time = tmin
	}
	st.LastReadingTime = td
	rs.To = st.Time
	rs.ESS = essOf(st.Particles)
	st.LastRun = rs
	if timed {
		if f.met.Predict != nil {
			f.met.Predict.Observe(rs.Predict.Seconds())
		}
		if f.met.Reweight != nil {
			f.met.Reweight.Observe(rs.Reweight.Seconds())
		}
		if f.met.Resample != nil {
			f.met.Resample.Observe(rs.Resample.Seconds())
		}
	}
}

// boolMask returns all-ones for true, zero for false (the compiler lowers
// the conditional to a flag materialization, not a branch).
func boolMask(b bool) uint64 {
	var k uint64
	if b {
		k = 1
	}
	return -k
}

// fsel returns a when m is all-ones and b when m is zero, by selecting the
// raw bit pattern: no float arithmetic, so the chosen value is exactly the
// operand.
func fsel(m uint64, a, b float64) float64 {
	return math.Float64frombits(math.Float64bits(a)&m | math.Float64bits(b)&^m)
}

// fneg returns -x by sign-bit flip (bit-identical to IEEE negation).
func fneg(x float64) float64 {
	return math.Float64frombits(math.Float64bits(x) ^ (1 << 63))
}

// predictSoA steps every particle by one second under the object motion
// model: particles move forward with their constant speed along graph edges,
// pick a random direction at intersections (never an immediate U-turn unless
// at a dead end), enter rooms when their walk reaches a room node, and once
// resting in a room leave it with probability RoomExitProb per second.
func (f *Filter) predictSoA(p *Pool, src *rng.Source) {
	et := f.et
	nt := f.nt
	rows, eRoom := et.Walk, et.RoomEnd
	isRoom := nt.IsRoom
	exitP := f.cfg.RoomExitProb // per-second probability; a step is one second
	n := p.n
	pedge, poffset, ptoward, pspeed, presting := p.edge[:n], p.offset[:n], p.toward[:n], p.speed[:n], p.resting
	for i := 0; i < n; i++ {
		off, e, tw := poffset[i], pedge[i], ptoward[i]
		row := &rows[e]
		word, bit := i>>6, uint64(1)<<uint(i&63)
		if presting[word]&bit != 0 {
			if !src.Bool(exitP) {
				continue
			}
			// Leave the room: head down one of its door edges.
			presting[word] &^= bit
			node := eRoom[e]
			if node < 0 {
				node = row.A // a roomless edge: leave from endpoint A
			}
			adj := nt.Incident(node)
			e = adj[src.Intn(len(adj))]
			row = &rows[e]
			if row.A == node {
				off = 0
				tw = row.B
			} else {
				off = row.Length
				tw = row.A
			}
		}
		remaining := pspeed[i]
		for remaining > 0 {
			// The walk direction is a near-coin-flip per particle, so the
			// toward-B/toward-A split is done by bit-masked selection
			// instead of branches. Selection only picks one of two
			// already-computed float64 bit patterns — off+remaining vs
			// off-remaining (= off+(-remaining), identical in IEEE
			// arithmetic) — so the result is bit-for-bit the branchy form's.
			m := boolMask(tw == row.B)
			toNode := fsel(m, row.Length-off, off)
			if remaining < toNode {
				off += fsel(m, remaining, fneg(remaining))
				break
			}
			remaining -= toNode
			node := tw
			if isRoom[node] {
				if row.A == node {
					off = 0
				} else {
					off = row.Length
				}
				presting[word] |= bit
				break
			}
			// Uniform pick among incident edges != e (no U-turn), unless the
			// node is a dead end. Candidates are visited in the CSR adjacency
			// order, which is Graph.IncidentEdges order.
			adj := nt.Incident(node)
			var next int32
			if len(adj) == 1 {
				next = adj[0]
			} else {
				cnt := 0
				next = e
				for _, a := range adj {
					if a == e {
						continue
					}
					cnt++
					if src.Intn(cnt) == 0 {
						next = a
					}
				}
			}
			row = &rows[next]
			if row.A == node {
				off = 0
				tw = row.B
			} else {
				off = row.Length
				tw = row.A
			}
			e = next
		}
		poffset[i], pedge[i], ptoward[i] = off, e, tw
	}
}

// negativeUpdateSoA applies the negative observation "no reader saw the
// object this second". Unlike positive readings, silence is weak evidence —
// a particle can be a second or two ahead of the true object — so the update
// is a sequential importance step: weights of particles inside some reader's
// range (rooms and stairwells are shielded from readers) are multiplied by
// NegativeWeight and the set is resampled only when the effective sample
// size degenerates below half the particle count. This preserves particle
// diversity across long silent stretches instead of collapsing the cloud
// into whichever hypothesis was briefly favored. Ranges of SUSPECT/DEAD
// readers (Filter.SetUnhealthy) are excluded: silence from a reader that may
// not be reporting carries no information, so the penalty there would push
// mass away from where the object plausibly is.
func (f *Filter) negativeUpdateSoA(p *Pool, src *rng.Source) {
	n := p.n
	covered, w := p.covered[:n], p.weight[:n]
	f.silence.Detectable(p.edge, p.offset, covered)
	// Multiply every weight by its factor, selected by table index rather
	// than by branch (the covered flags are close to a coin flip): the
	// penalty inside a range, and outside it 1, which leaves the weight's
	// bits exactly as they were.
	wtab := [2]float64{1, f.cfg.NegativeWeight}
	inside := 0
	for i, c := range covered {
		k := 0
		if c {
			k = 1
		}
		inside += k
		w[i] *= wtab[k]
	}
	if inside == 0 {
		return
	}
	if normalize(w) < float64(n)/2 {
		f.resampleSoA(p, src, nil)
		f.roughenSoA(p, src)
	}
}

// roughenSoA perturbs resampled particle speeds with small Gaussian noise,
// all in one batched draw, so cloned particles diverge again instead of
// moving in lock-step.
func (f *Filter) roughenSoA(p *Pool, src *rng.Source) {
	if f.cfg.SpeedJitter <= 0 {
		return
	}
	src.TruncGaussianFill(p.speed, f.cfg.SpeedJitter, f.cfg.MinSpeed, f.cfg.MaxSpeed)
}

// initSoA reinitializes the pool's particles within the detecting reader's
// activation range: InitAt's distribution, drawn in place with no
// allocation.
func (f *Filter) initSoA(p *Pool, src *rng.Source, reader model.ReaderID) {
	ivs, total := f.cov.InitIntervals(reader)
	ns := f.ParticleBudget()
	p.ensure(ns)
	for k := range p.resting {
		p.resting[k] = 0
	}
	w := 1.0 / float64(ns)
	for i := 0; i < ns; i++ {
		p.edge[i], p.offset[i], p.toward[i], p.speed[i] = f.initOne(src, reader, ivs, total)
		p.weight[i] = w
	}
}
