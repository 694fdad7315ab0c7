// Package rng provides deterministic random number generation for the
// simulator and the particle filter.
//
// Every stochastic component in this repository draws its randomness from an
// explicit *rng.Source so that whole experiments are reproducible from a
// single seed. The generator is a SplitMix64 core with a ziggurat Gaussian
// sampler, implemented natively so the particle kernel's hot loops (predict
// draws, roughening, recovery re-initialization) pay a couple of nanoseconds
// per draw instead of math/rand's interface-dispatched generator. Streams are
// platform-independent: every draw is pure 64-bit integer and IEEE float64
// arithmetic, so a seed reproduces the same experiment on any architecture.
package rng

import (
	"fmt"
	"math"
	"math/bits"
)

// Source is a deterministic random source. It is not safe for concurrent use;
// derive one Source per goroutine with Split.
type Source struct {
	s uint64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	return &Source{s: uint64(seed)}
}

// Uint64 returns the next 64 uniform bits: one SplitMix64 step (Weyl
// increment + avalanche). SplitMix64 is a full-period 2^64 generator whose
// output function is a strong mixer, which makes every seed — including 0 and
// small integers — immediately well distributed.
func (s *Source) Uint64() uint64 {
	s.s += 0x9e3779b97f4a7c15
	z := s.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Derive returns a Source deterministically keyed by a base seed and a list
// of identifiers (object IDs, time stamps). Equal inputs always yield the
// same stream, independent of call order — the property that makes parallel
// per-object processing reproducible.
func Derive(seed int64, ids ...int64) *Source {
	// SplitMix64-style avalanche over the running hash.
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	mix := func(v uint64) {
		h ^= v
		h += 0x9e3779b97f4a7c15
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	for _, id := range ids {
		mix(uint64(id))
	}
	return New(int64(h & 0x7fffffffffffffff))
}

// Float64 returns a uniform value in [0, 1): the top 53 bits of one draw
// scaled by 2^-53.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * 0x1p-53
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
//
// The sample is Lemire's multiply-shift reduction: the high 64 bits of
// draw*n. With a 64-bit draw the bias against a perfectly uniform [0, n) is
// below 2^-32 for any n this codebase uses (particle counts, edge fan-outs),
// which is far beneath the Monte Carlo noise floor of the filter, and the
// reduction costs one multiply instead of math/rand's rejection loop.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	hi, _ := bits.Mul64(s.Uint64(), uint64(n))
	return int(hi)
}

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Ziggurat tables for the standard normal (Marsaglia & Tsang, 128 layers),
// computed once at init from the published constants: R is the start of the
// tail, V the common layer area.
const (
	zigR = 3.442619855899
	zigV = 9.91256303526217e-3
	zigM = 2147483648.0 // 2^31: draws are reduced to signed 32-bit integers
)

var (
	zigK [128]uint32  // acceptance thresholds on |j|
	zigW [128]float64 // layer widths: x = j * zigW[i]
	zigF [128]float64 // f(x) at the layer boundaries
)

func init() {
	dn, tn := zigR, zigR
	q := zigV / math.Exp(-0.5*dn*dn)
	zigK[0] = uint32(dn / q * zigM)
	zigK[1] = 0
	zigW[0] = q / zigM
	zigW[127] = dn / zigM
	zigF[0] = 1
	zigF[127] = math.Exp(-0.5 * dn * dn)
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(zigV/dn+math.Exp(-0.5*dn*dn)))
		zigK[i+1] = uint32(dn / tn * zigM)
		tn = dn
		zigF[i] = math.Exp(-0.5 * dn * dn)
		zigW[i] = dn / zigM
	}
}

// NormFloat64 returns a standard normal sample via the ziggurat: one draw and
// one table compare on the fast path (~98.8% of samples), exact rejection
// against the density on the layer fringes, and Marsaglia's exponential
// wedge for the tail beyond R. The fast path is small enough to inline into
// the particle kernel's roughening loop; the fringe and tail live in
// normSlow.
func (s *Source) NormFloat64() float64 {
	u := s.Uint64()
	j := int32(u) // low 32 bits, signed: magnitude and sign of the candidate
	i := u >> 32 & 127
	m := j >> 31             // branchless |j|: the sign is uniform, a branch would
	a := uint32((j ^ m) - m) // mispredict half the time
	if a < zigK[i] {
		return float64(j) * zigW[i]
	}
	return s.normSlow(j, i)
}

// normSlow finishes a ziggurat sample whose first candidate (j, layer i) fell
// outside the acceptance threshold: fringe rejection against the density,
// Marsaglia's wedge for the tail, and fresh candidates until one lands.
func (s *Source) normSlow(j int32, i uint64) float64 {
	for {
		if i == 0 {
			// Tail: sample x > R from the normal tail distribution.
			for {
				x := -math.Log(s.Float64()) / zigR
				y := -math.Log(s.Float64())
				if y+y >= x*x {
					if j < 0 {
						return -(zigR + x)
					}
					return zigR + x
				}
			}
		}
		x := float64(j) * zigW[i]
		if zigF[i]+s.Float64()*(zigF[i-1]-zigF[i]) < math.Exp(-0.5*x*x) {
			return x
		}
		u := s.Uint64()
		j = int32(u)
		i = u >> 32 & 127
		m := j >> 31
		if uint32((j^m)-m) < zigK[i] {
			return float64(j) * zigW[i]
		}
	}
}

// TruncGaussian returns a normal sample truncated to [lo, hi] by rejection.
// It is used for walking speeds, which must stay positive. If the window is
// more than a few standard deviations away from the mean the loop falls back
// to clamping after a bounded number of attempts.
//
// The first attempt's ziggurat fast path is written out here so the whole
// common case — candidate accepted from the layer body, inside the window —
// inlines into callers (the recovery re-initialization draws one speed per
// particle and cannot batch, unlike roughening). Rejections, fringe/tail
// candidates, and invalid bounds (for which no candidate can ever land in
// the empty window) continue in truncSlow.
func (s *Source) TruncGaussian(mean, stddev, lo, hi float64) float64 {
	u := s.Uint64()
	j := int32(u)
	i := u >> 32 & 127
	m := j >> 31
	if uint32((j^m)-m) < zigK[i] {
		v := mean + stddev*(float64(j)*zigW[i])
		if v >= lo && v <= hi {
			return v
		}
		return s.truncSlow(mean, stddev, lo, hi, 1)
	}
	v := mean + stddev*s.normSlow(j, i)
	if v >= lo && v <= hi {
		return v
	}
	return s.truncSlow(mean, stddev, lo, hi, 1)
}

// truncSlow continues TruncGaussian's rejection loop after `done` failed
// attempts.
func (s *Source) truncSlow(mean, stddev, lo, hi float64, done int) float64 {
	if lo > hi {
		panic(fmt.Sprintf("rng: TruncGaussian invalid bounds [%v, %v]", lo, hi))
	}
	for i := done; i < 64; i++ {
		v := mean + stddev*s.NormFloat64()
		if v >= lo && v <= hi {
			return v
		}
	}
	return math.Min(hi, math.Max(lo, mean))
}

// TruncGaussianFill overwrites each vs[i] with TruncGaussian(vs[i], stddev,
// lo, hi), consuming the random stream exactly as the equivalent loop of
// scalar calls would. It exists for the particle kernel's roughening pass:
// one call per particle batch instead of one per particle, with the
// generator state and the ziggurat fast path hoisted into the loop so the
// common case (candidate accepted from the layer body, inside the window) is
// pure register arithmetic with no calls.
func (s *Source) TruncGaussianFill(vs []float64, stddev, lo, hi float64) {
	if lo > hi {
		panic(fmt.Sprintf("rng: TruncGaussianFill invalid bounds [%v, %v]", lo, hi))
	}
	st := s.s
	for i, mean := range vs {
		ok := false
		for a := 0; a < 64; a++ {
			st += 0x9e3779b97f4a7c15
			z := st
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			u := z ^ (z >> 31)
			j := int32(u)
			idx := u >> 32 & 127
			m := j >> 31
			var g float64
			if uint32((j^m)-m) < zigK[idx] {
				g = mean + stddev*(float64(j)*zigW[idx])
			} else {
				s.s = st
				g = mean + stddev*s.normSlow(j, idx)
				st = s.s
			}
			if g >= lo && g <= hi {
				vs[i] = g
				ok = true
				break
			}
		}
		if !ok {
			vs[i] = math.Min(hi, math.Max(lo, mean))
		}
	}
	s.s = st
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.Float64() < p }

// Categorical samples an index proportionally to weights. Negative weights
// are treated as zero. If all weights are zero it returns a uniform index.
// It panics if weights is empty.
func (s *Source) Categorical(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: Categorical with empty weights")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return s.Intn(len(weights))
	}
	u := s.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w > 0 {
			acc += w
		}
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Shuffle randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, s.Intn(i+1))
	}
}
