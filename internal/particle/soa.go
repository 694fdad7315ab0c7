package particle

import (
	"math"
	"time"

	"repro/internal/anchor"
	"repro/internal/model"
	"repro/internal/rng"
)

// This file is the structure-of-arrays particle kernel, the filter's only
// implementation of Algorithm 2: its inner loops run over the flat parallel
// columns a State owns (edge index, offset, heading, speed, resting bitset,
// weight; see cols), not over 48-byte Particle structs. Predict streams
// through the columns in place, reweight hands whole batches to the coverage
// index (rfid.Coverage.BatchDetectableBy) and the negative update to the
// silence table of the installed reader-health set
// (rfid.SilenceTable.Detectable), resampling permutes columns instead of
// structs, and roughening draws all speeds in one call. The arithmetic is
// bit-for-bit that of the paper's geometric, particle-by-particle
// formulation — same float operations in the same order, same random draws
// in the same order — which the package tests keep as the oracle
// (TestIndexedFilterMatchesGeometricBitForBit).
//
// The Pool is the per-call scratch for one object-at-a-time stepping. It is
// not safe for concurrent use; the engine keeps one per worker and reuses it
// across all objects the worker steps, so steady-state processing allocates
// nothing.

// Pool holds the kernel's per-call scratch: the back blocks resampling
// permutes a state's particles into, the output of the batch coverage
// predicates, the resampler's prefix sums and the detection schedule. It
// never holds a state's particles once a call returns. A zero Pool is ready
// to use; its slices grow on demand and are retained across calls.
type Pool struct {
	// bints and bfloats are the back blocks: resampling permutes a state's
	// particles into them and swaps them with the state's blocks, so the
	// state takes these and the pool keeps the state's old ones. They are
	// sized on their own, to the state being resampled, at exactly
	// blockLens' length, so a block a state takes carries no slack.
	bints   []int32
	bfloats []float64

	// covered is the output of the batch coverage predicates.
	covered []bool
	// cum is the resampler's prefix-sum scratch (cumulative weights with a
	// +Inf sentinel in the last slot, so the CDF walk needs one compare).
	cum []float64

	// sched is the recycled detection schedule: (time, reader) pairs sorted
	// by time, deduplicated last-wins.
	sched []soaSched
}

type soaSched struct {
	t      model.Time
	reader model.ReaderID
}

// NewPool returns an empty Pool. Its scratch is allocated lazily on first use.
func NewPool() *Pool { return &Pool{} }

// ensure sizes the per-particle scratch for n particles, reusing capacity.
func (p *Pool) ensure(n int) {
	if cap(p.covered) < n {
		p.covered = make([]bool, n)
		p.cum = make([]float64, n)
	}
	p.covered, p.cum = p.covered[:n], p.cum[:n]
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
		pool = new(Pool)
	}
	f.advanceSoA(pool, src, st, entries, now)
}

// advanceSoA steps st second by second to min(td + coast, now), where td is
// the newest reading time, reweighting and resampling at every detected
// second: the paper's Algorithm 2, one stage at a time over the state's
// columns.
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
	p.ensure(st.Len())
	cursor := 0
	for tj := st.Time + 1; tj <= tmin; tj++ {
		if timed {
			t0 = time.Now()
		}
		f.predictSoA(st, src)
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
				f.negativeUpdateSoA(p, st, src)
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
		c := st.cols()
		f.cov.BatchDetectableBy(reader, c.edge, c.offset, p.covered)
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
			f.initSoA(st, src, reader)
			p.ensure(st.Len())
			continue
		}
		if timed {
			t0 = time.Now()
		}
		f.resampleSoA(p, st, src, &[2]float64{lw / total, hw / total})
		f.roughenSoA(st, src)
		rs.Resamples++
		if timed {
			rs.Resample += time.Since(t0)
		}
	}
	st.memoIdx, st.memo = nil, anchor.Dist{}
	if tmin > st.Time {
		st.Time = tmin
	}
	st.LastReadingTime = td
	rs.To = st.Time
	rs.ESS = essOf(st.cols().weight)
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
func (f *Filter) predictSoA(st *State, src *rng.Source) {
	et := f.et
	nt := f.nt
	rows, eRoom := et.Walk, et.RoomEnd
	isRoom := nt.IsRoom
	exitP := f.cfg.RoomExitProb // per-second probability; a step is one second
	c := st.cols()
	pedge, poffset, ptoward, pspeed, presting := c.edge, c.offset[:len(c.edge)], c.toward[:len(c.edge)], c.speed[:len(c.edge)], c.resting
	for i := range pedge {
		off, e, tw := poffset[i], pedge[i], ptoward[i]
		row := &rows[e]
		word, bit := restingBit(i)
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
func (f *Filter) negativeUpdateSoA(p *Pool, st *State, src *rng.Source) {
	c := st.cols()
	n := len(c.edge)
	covered, w := p.covered[:n], c.weight[:n]
	f.silence.Detectable(c.edge, c.offset, covered)
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
		f.resampleSoA(p, st, src, nil)
		f.roughenSoA(st, src)
	}
}

// roughenSoA perturbs resampled particle speeds with small Gaussian noise,
// all in one batched draw, so cloned particles diverge again instead of
// moving in lock-step.
func (f *Filter) roughenSoA(st *State, src *rng.Source) {
	if f.cfg.SpeedJitter <= 0 {
		return
	}
	src.TruncGaussianFill(st.cols().speed, f.cfg.SpeedJitter, f.cfg.MinSpeed, f.cfg.MaxSpeed)
}

// initSoA (re)initializes st's particles within the detecting reader's
// activation range: InitAt's distribution, drawn into the state's columns
// at the current particle budget. The kidnapped-robot recovery calls it mid
// advance; at an unchanged particle count it writes in place and allocates
// nothing, at another it gives the state new blocks of the budget's size.
func (f *Filter) initSoA(st *State, src *rng.Source, reader model.ReaderID) {
	ivs, total := f.cov.InitIntervals(reader)
	ns := f.ParticleBudget()
	if st.Len() != ns {
		st.ints, st.floats = newBlocks(ns)
	}
	c := st.cols()
	clear(c.resting)
	w := 1.0 / float64(ns)
	for i := 0; i < ns; i++ {
		c.edge[i], c.offset[i], c.toward[i], c.speed[i] = f.initOne(src, reader, ivs, total)
		c.weight[i] = w
	}
}
