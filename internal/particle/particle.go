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
	"math"

	"repro/internal/anchor"
	"repro/internal/model"
	"repro/internal/walkgraph"
)

// Particle is one hypothesis of an object's state: a location on the walking
// graph, a movement direction (the edge endpoint it is heading toward), a
// constant walking speed, and an importance weight.
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
type State struct {
	Object    model.ObjectID
	Particles []Particle
	// Time is the simulation second the particle set describes.
	Time model.Time
	// LastReadingTime is the time of the newest reading incorporated.
	LastReadingTime model.Time
	// LastRun describes the most recent RunPool/AdvancePool call: its window,
	// work counts and ESS always, its stage durations only when the filter is
	// instrumented (Filter.Instrument).
	LastRun RunStats

	// soaPool/soaGen stamp the last kernel store into this state: when
	// soaPool's arrays still hold exactly this state's particles
	// (generation match), the kernel skips re-loading them. Clones don't
	// carry the stamp.
	soaPool *Pool
	soaGen  uint64

	// memoIdx/memo hold the distribution AnchorDist last computed, for the
	// index it snapped to. Every kernel store clears them, so a memo always
	// describes the current particles; callers outside the kernel must not
	// rewrite Particles of a state they snap.
	memoIdx *anchor.Index
	memo    anchor.Dist
}

// Clone returns a deep copy of the state, without the kernel's residency
// stamp, so a state and its clone can be advanced independently. The
// memoized distribution is shared: a Dist is immutable, and advancing either
// copy clears only its own. The query path no longer clones (the cache hands
// states over by ownership); snapshots and the benchmark harness do.
func (s *State) Clone() *State {
	c := *s
	c.Particles = make([]Particle, len(s.Particles))
	copy(c.Particles, s.Particles)
	c.soaPool = nil
	c.soaGen = 0
	return &c
}

// normalize scales weights to sum to one. If all weights are zero it resets
// them to uniform.
func normalize(w []float64) {
	total := 0.0
	for i := range w {
		total += w[i]
	}
	if total <= 0 {
		u := 1.0 / float64(len(w))
		for i := range w {
			w[i] = u
		}
		return
	}
	for i := range w {
		w[i] /= total
	}
}

// effectiveSampleSize returns 1 / sum(w^2) for normalized weights, the
// standard degeneracy diagnostic: it approaches 1 when one particle
// dominates and Ns when weights are uniform.
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
	if len(s.Particles) == 0 {
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
	total := 0.0
	for i := range s.Particles {
		total += s.Particles[i].Weight
	}
	if total <= 0 {
		u := 1.0 / float64(len(s.Particles))
		for i := range s.Particles {
			acc.Add(idx.Snap(s.Particles[i].Loc), u)
		}
		return acc.Dist()
	}
	for i := range s.Particles {
		acc.Add(idx.Snap(s.Particles[i].Loc), s.Particles[i].Weight/total)
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

// MeanPoint returns the weighted mean of particle positions, a crude point
// estimate used by diagnostics.
func (s *State) MeanPoint(g *walkgraph.Graph) (x, y float64) {
	if len(s.Particles) == 0 {
		return math.NaN(), math.NaN()
	}
	total := 0.0
	for i := range s.Particles {
		total += s.Particles[i].Weight
	}
	if total <= 0 {
		total = float64(len(s.Particles))
		for i := range s.Particles {
			p := g.Point(s.Particles[i].Loc)
			x += p.X / total
			y += p.Y / total
		}
		return x, y
	}
	for i := range s.Particles {
		p := g.Point(s.Particles[i].Loc)
		x += p.X * s.Particles[i].Weight / total
		y += p.Y * s.Particles[i].Weight / total
	}
	return x, y
}
