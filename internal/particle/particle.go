// Package particle implements the paper's particle filter-based location
// inference (Sampling Importance Resampling): particles hypothesize an
// object's location, direction, and walking speed on the indoor walking
// graph; RFID readings reweight them through the device sensing model; and
// systematic resampling (the paper's Algorithm 1) concentrates them on
// consistent hypotheses. The Filter type runs the paper's Algorithm 2 over
// an object's aggregated readings.
package particle

import (
	"fmt"

	"repro/internal/anchor"
	"repro/internal/model"
	"repro/internal/walkgraph"
)

// Particle is one hypothesis of an object's state: a location on the walking
// graph, a movement direction (the edge endpoint it is heading toward), a
// constant walking speed, and an importance weight. A State keeps its
// particles as columns; Particle is their one-struct-each form, in which
// snapshots store them (State.Particles, FromParticles).
type Particle struct {
	Loc walkgraph.Location
	// Toward is the endpoint of Loc.Edge the particle moves toward.
	Toward walkgraph.NodeID
	// Speed is the particle's walking speed in m/s.
	Speed float64
	// Resting marks a particle that has entered a room and is staying inside
	// (it leaves with the room-exit probability each second).
	Resting bool
	// Weight is the importance weight. Weights are normalized across a
	// particle set before resampling.
	Weight float64
}

// Config holds the particle filter parameters. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// Ns is the number of particles per object (paper default: 64).
	Ns int
	// SpeedMean and SpeedStd parameterize the Gaussian walking speed
	// distribution (paper: mu = 1 m/s, sigma = 0.1).
	SpeedMean, SpeedStd float64
	// MinSpeed and MaxSpeed truncate sampled speeds to a sane range.
	MinSpeed, MaxSpeed float64
	// RoomExitProb is the per-second probability that a particle resting in
	// a room moves out (paper: 0.1).
	RoomExitProb float64
	// HighWeight is assigned to particles consistent with a reading (inside
	// the detecting reader's activation range); LowWeight to the rest.
	HighWeight, LowWeight float64
	// MaxCoastSeconds bounds how long the filter keeps predicting past the
	// last active reading before the distribution becomes unusable
	// (paper: 60 s).
	MaxCoastSeconds int
	// UseNegativeInfo enables negative observations: during a second with no
	// reading for the object, particles sitting inside any reader's
	// activation range are inconsistent (a covered tag virtually never stays
	// silent for a whole second under the sensing model) and are reweighted
	// down. The paper's Algorithm 2 skips silent seconds entirely; this
	// extension follows the full device sensing model of the RFID cleansing
	// literature the paper builds on and is benchmarked by the
	// negative-information ablation.
	UseNegativeInfo bool
	// SpeedJitter is the standard deviation of the roughening noise added to
	// particle speeds after every resampling step. Resampling clones
	// particles; without roughening a cloud degenerates into identical
	// copies that snap to a single anchor point. Zero disables roughening.
	SpeedJitter float64
	// NegativeWeight is the weight a particle inside some reader's range
	// receives on a silent second. It is deliberately much softer than
	// LowWeight: a whole-second miss of a covered tag is rare, but a particle
	// can be slightly ahead of or behind the true object, entering the next
	// range a second or two early, and annihilating such particles collapses
	// the filter into rooms.
	NegativeWeight float64
	// Resample is the resampling algorithm (default: Systematic, the
	// paper's Algorithm 1).
	Resample Resampler
}

// DefaultConfig returns the paper's parameters (Table 2 and Section 4.4).
func DefaultConfig() Config {
	return Config{
		Ns:              64,
		SpeedMean:       1.0,
		SpeedStd:        0.1,
		MinSpeed:        0.1,
		MaxSpeed:        2.5,
		RoomExitProb:    0.1,
		HighWeight:      1.0,
		LowWeight:       0.01,
		MaxCoastSeconds: 60,
		UseNegativeInfo: true,
		NegativeWeight:  0.3,
		SpeedJitter:     0.05,
		Resample:        Systematic,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Ns <= 0 {
		return fmt.Errorf("particle: Ns must be positive, got %d", c.Ns)
	}
	if c.SpeedMean <= 0 || c.SpeedStd < 0 {
		return fmt.Errorf("particle: invalid speed distribution (%v, %v)", c.SpeedMean, c.SpeedStd)
	}
	if c.MinSpeed <= 0 || c.MaxSpeed < c.MinSpeed {
		return fmt.Errorf("particle: invalid speed bounds [%v, %v]", c.MinSpeed, c.MaxSpeed)
	}
	if c.RoomExitProb < 0 || c.RoomExitProb > 1 {
		return fmt.Errorf("particle: RoomExitProb %v out of [0,1]", c.RoomExitProb)
	}
	if c.HighWeight <= c.LowWeight || c.LowWeight < 0 {
		return fmt.Errorf("particle: weights must satisfy 0 <= low < high, got %v, %v", c.LowWeight, c.HighWeight)
	}
	if c.MaxCoastSeconds < 0 {
		return fmt.Errorf("particle: MaxCoastSeconds %d negative", c.MaxCoastSeconds)
	}
	if c.UseNegativeInfo && (c.NegativeWeight <= 0 || c.NegativeWeight > c.HighWeight) {
		return fmt.Errorf("particle: NegativeWeight %v out of (0, HighWeight]", c.NegativeWeight)
	}
	if c.SpeedJitter < 0 {
		return fmt.Errorf("particle: SpeedJitter %v negative", c.SpeedJitter)
	}
	if c.Resample != Systematic && c.Resample != Multinomial {
		return fmt.Errorf("particle: unknown Resample %d", c.Resample)
	}
	return nil
}

// State is a filtered particle set for one object at a point in time. It is
// the unit stored by the cache management module.
//
// The state owns the kernel's columns (see cols): the kernel steps them in
// place, and resampling swaps them with its pool's back buffers, so no array
// is ever shared between a state and a pool. Particles and FromParticles
// convert to and from the one-struct-per-particle form.
type State struct {
	Object model.ObjectID
	// Time is the simulation second the particle set describes.
	Time model.Time
	// LastReadingTime is the time of the newest reading incorporated.
	LastReadingTime model.Time
	// LastRun describes the most recent RunPool/AdvancePool call: its window,
	// work counts and ESS always, its stage durations only when the filter is
	// instrumented (Filter.Instrument).
	LastRun RunStats

	// ints and floats are the two blocks the particle columns are sliced
	// from, each allocated at exactly blockLens' length.
	ints   []int32
	floats []float64

	// memoIdx/memo hold the distribution AnchorDist last computed, for the
	// index it snapped to. Every kernel step clears them, so a memo always
	// describes the current particles.
	memoIdx *anchor.Index
	memo    anchor.Dist
}

// cols is a state's particles as the kernel's columns. The int32 block holds
// n edge indices, n headings (Particle.Toward) and the resting bitset in
// 32-bit words, bit i&31 of word i>>5 for particle i; the float64 block holds
// n offsets, n speeds and n weights. That is 32 bytes and one bit per
// particle, in two allocations.
type cols struct {
	edge, toward, resting []int32
	offset, speed, weight []float64
}

// blockLens returns the lengths of the int32 and float64 blocks of n
// particles.
func blockLens(n int) (ints, floats int) { return 2*n + (n+31)/32, 3 * n }

// newBlocks allocates zeroed blocks for n particles.
func newBlocks(n int) ([]int32, []float64) {
	li, lf := blockLens(n)
	return make([]int32, li), make([]float64, lf)
}

// carve slices the columns out of two blocks.
func carve(ints []int32, floats []float64) cols {
	n := len(floats) / 3
	return cols{
		edge: ints[:n:n], toward: ints[n : 2*n : 2*n], resting: ints[2*n:],
		offset: floats[:n:n], speed: floats[n : 2*n : 2*n], weight: floats[2*n:],
	}
}

// cols returns the state's columns.
func (s *State) cols() cols { return carve(s.ints, s.floats) }

// restingBit returns the resting-word index and mask of particle i.
func restingBit(i int) (word int, bit int32) { return i >> 5, 1 << uint(i&31) }

// Len returns the number of particles.
func (s *State) Len() int { return len(s.floats) / 3 }

// Particles returns the particles one struct each, in a fresh slice: the
// form snapshots store.
func (s *State) Particles() []Particle {
	c := s.cols()
	ps := make([]Particle, len(c.edge))
	for i := range ps {
		word, bit := restingBit(i)
		ps[i] = Particle{
			Loc:     walkgraph.Location{Edge: walkgraph.EdgeID(c.edge[i]), Offset: c.offset[i]},
			Toward:  walkgraph.NodeID(c.toward[i]),
			Speed:   c.speed[i],
			Resting: c.resting[word]&bit != 0,
			Weight:  c.weight[i],
		}
	}
	return ps
}

// FromParticles returns object obj's state holding ps in column form, with
// zero time stamps and LastRun: the inverse of Particles.
func FromParticles(obj model.ObjectID, ps []Particle) *State {
	st := &State{Object: obj}
	st.ints, st.floats = newBlocks(len(ps))
	c := st.cols()
	for i := range ps {
		p := &ps[i]
		c.edge[i] = int32(p.Loc.Edge)
		c.offset[i] = p.Loc.Offset
		c.toward[i] = int32(p.Toward)
		c.speed[i] = p.Speed
		c.weight[i] = p.Weight
		if p.Resting {
			word, bit := restingBit(i)
			c.resting[word] |= bit
		}
	}
	return st
}

// Clone returns a deep copy of the state, so a state and its clone can be
// advanced independently. The memoized distribution is shared: a Dist is
// immutable, and advancing either copy clears only its own. The query path
// does not clone (the cache hands states over by ownership); the benchmark
// harness does.
func (s *State) Clone() *State {
	c := *s
	c.ints = make([]int32, len(s.ints))
	copy(c.ints, s.ints)
	c.floats = make([]float64, len(s.floats))
	copy(c.floats, s.floats)
	return &c
}

// normalize scales weights to sum to one — if all weights are zero it
// resets them to uniform — and returns the effective sample size
// 1 / sum(w^2) of the result, the standard degeneracy diagnostic: it
// approaches 1 when one particle dominates and len(w) when weights are
// uniform. The squares are summed in the pass that divides, in index order,
// so the ESS has the bits of a second pass over the normalized weights.
func normalize(w []float64) (ess float64) {
	total := 0.0
	for i := range w {
		total += w[i]
	}
	sq := 0.0
	if total <= 0 {
		u := 1.0 / float64(len(w))
		for i := range w {
			w[i] = u
			sq += u * u
		}
	} else {
		for i := range w {
			w[i] /= total
			sq += w[i] * w[i]
		}
	}
	if sq == 0 {
		return 0
	}
	return 1 / sq
}

// AnchorDist snaps every particle to its nearest anchor point and returns
// the resulting probability distribution, weighting each particle by its
// (normalized) importance weight; with uniform weights — always the case
// right after a resampling step — this is exactly the paper's n/Ns counting.
// This is the discretization step feeding the APtoObjHT hash table. Masses
// accumulate in particle order into acc, the calling worker's scratch, which
// comes back reset.
//
// The result is memoized on the state for idx until the kernel next moves
// the particles, so asking again — the next query in the same stream second —
// returns the same Dist without snapping. Snapping to another index replaces
// the memo.
func (s *State) AnchorDist(idx *anchor.Index, acc *anchor.Accumulator) anchor.Dist {
	if d, ok := s.MemoDist(idx); ok {
		return d
	}
	if s.Len() == 0 {
		return anchor.Dist{}
	}
	s.memoIdx, s.memo = idx, s.snap(idx, acc)
	return s.memo
}

// MemoDist returns the distribution AnchorDist memoized for idx, if the
// particles have not moved since; ok is false when AnchorDist would snap.
func (s *State) MemoDist(idx *anchor.Index) (d anchor.Dist, ok bool) {
	return s.memo, idx != nil && s.memoIdx == idx
}

// snap is AnchorDist's computation, unmemoized.
func (s *State) snap(idx *anchor.Index, acc *anchor.Accumulator) anchor.Dist {
	// Normalize on the fly without mutating the particle weights, so
	// repeated calls on the same (possibly cached) state are bit-for-bit
	// identical.
	c := s.cols()
	total := 0.0
	for _, w := range c.weight {
		total += w
	}
	if total <= 0 {
		u := 1.0 / float64(len(c.weight))
		for i, e := range c.edge {
			acc.Add(idx.Snap(walkgraph.Location{Edge: walkgraph.EdgeID(e), Offset: c.offset[i]}), u)
		}
		return acc.Dist()
	}
	for i, e := range c.edge {
		acc.Add(idx.Snap(walkgraph.Location{Edge: walkgraph.EdgeID(e), Offset: c.offset[i]}), c.weight[i]/total)
	}
	return acc.Dist()
}

// AnchorDistribution is AnchorDist in map form with a throwaway scratch
// (nil for an empty particle set). Kept for the frozen benchmark harness;
// the engine calls AnchorDist with its workers' accumulators.
func (s *State) AnchorDistribution(idx *anchor.Index) map[anchor.ID]float64 {
	var acc anchor.Accumulator
	return s.AnchorDist(idx, &acc).Map()
}
