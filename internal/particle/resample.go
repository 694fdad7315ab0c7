package particle

import (
	"math"

	"repro/internal/rng"
)

// Resampler selects the resampling algorithm the filter runs after every
// detected second and whenever a silent second's negative update degenerates
// the weights.
type Resampler uint8

const (
	// Systematic is the paper's Algorithm 1: draw one uniform starting point
	// u1 in [0, 1/Ns] and take Ns equally spaced probes u_j = u1 + (j-1)/Ns
	// through the weight CDF. Low-weight particles are eliminated and
	// high-weight particles replicated.
	Systematic Resampler = iota + 1
	// Multinomial draws each output particle independently in proportion to
	// the weights. It has higher variance than Systematic and exists as the
	// ablation baseline for the resampling design choice.
	Multinomial
)

// resampleSoA replaces the pool's particles with Ns draws in proportion to
// their normalized weights, by Config.Resample, permuting the flat arrays
// into the back buffers and swapping them in; every output weight is 1/Ns.
//
// On a detected second the normalized weights take exactly two values,
// selected by the covered flags: two holds them ({low, high} over the
// total), and Systematic never materializes per-particle weights. A nil two
// means the normalized weights are in p.weight.
func (f *Filter) resampleSoA(p *Pool, src *rng.Source, two *[2]float64) {
	ns := p.n
	if ns == 0 {
		return
	}
	weight, covered := p.weight[:ns], p.covered[:ns]
	inv := 1.0 / float64(ns)
	for k := range p.bresting {
		p.bresting[k] = 0
	}
	if f.cfg.Resample == Multinomial {
		// Categorical reads the normalized weights themselves.
		if two != nil {
			for i, c := range covered {
				k := 0
				if c {
					k = 1
				}
				weight[i] = two[k]
			}
		}
		for j := 0; j < ns; j++ {
			p.copyTo(j, src.Categorical(weight))
		}
	} else {
		u1 := src.Uniform(0, inv)
		// Prefix-sum the weights into cum in index order (the running
		// accumulator of Algorithm 1's CDF walk), then overwrite the last
		// slot with +Inf: the walk below can never pass it, which turns the
		// bounds check "i < ns-1 && u > cum" into the single compare
		// "u > cum[i]" while stopping at exactly the same index.
		cum := p.cum[:ns]
		c := 0.0
		if two != nil {
			for i := 0; i < ns; i++ {
				k := 0
				if covered[i] {
					k = 1
				}
				c += two[k]
				cum[i] = c
			}
		} else {
			for i := 0; i < ns; i++ {
				c += weight[i]
				cum[i] = c
			}
		}
		cum[ns-1] = math.Inf(1)
		// For the usual power-of-two particle counts, 1/ns is exact and
		// float64(j)*inv is the correctly rounded quotient
		// float64(j)/float64(ns) — the same bits without a division per
		// probe. Other counts keep the division so the probes stay
		// bit-identical to the formula as written.
		pow2 := ns&(ns-1) == 0
		i := 0
		for j := 0; j < ns; j++ {
			var u float64
			if pow2 {
				u = u1 + float64(j)*inv
			} else {
				u = u1 + float64(j)/float64(ns)
			}
			for u > cum[i] {
				i++
			}
			p.copyTo(j, i)
		}
	}
	p.edge, p.bedge = p.bedge, p.edge
	p.offset, p.boffset = p.boffset, p.offset
	p.toward, p.btoward = p.btoward, p.toward
	p.speed, p.bspeed = p.bspeed, p.speed
	p.resting, p.bresting = p.bresting, p.resting
	for j := range weight {
		weight[j] = inv
	}
}

// copyTo copies live particle i into back-buffer slot j.
func (p *Pool) copyTo(j, i int) {
	p.bedge[j] = p.edge[i]
	p.boffset[j] = p.offset[i]
	p.btoward[j] = p.toward[i]
	p.bspeed[j] = p.speed[i]
	if p.resting[i>>6]&(1<<uint(i&63)) != 0 {
		p.bresting[j>>6] |= 1 << uint(j&63)
	}
}
