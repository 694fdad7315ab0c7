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

// resampleSoA replaces st's particles with Ns draws in proportion to their
// normalized weights, by Config.Resample: it permutes the state's columns
// into the pool's back blocks, sets every weight there to 1/Ns, and swaps the
// blocks, so the state owns the resampled particles and the pool keeps the
// state's old blocks as its next back buffers.
//
// On a detected second the normalized weights take exactly two values,
// selected by the covered flags: two holds them ({low, high} over the
// total), and Systematic never materializes per-particle weights. A nil two
// means the normalized weights are in the state's weight column.
func (f *Filter) resampleSoA(p *Pool, st *State, src *rng.Source, two *[2]float64) {
	ns := st.Len()
	if ns == 0 {
		return
	}
	if li, lf := blockLens(ns); len(p.bints) != li || len(p.bfloats) != lf {
		p.bints, p.bfloats = newBlocks(ns)
	}
	from, to := st.cols(), carve(p.bints, p.bfloats)
	weight, covered := from.weight[:ns], p.covered[:ns]
	inv := 1.0 / float64(ns)
	clear(to.resting)
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
			from.copyTo(&to, j, src.Categorical(weight))
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
			from.copyTo(&to, j, i)
		}
	}
	for j := range to.weight {
		to.weight[j] = inv
	}
	st.ints, p.bints = p.bints, st.ints
	st.floats, p.bfloats = p.bfloats, st.floats
}

// copyTo copies particle i of c into slot j of dst.
func (c *cols) copyTo(dst *cols, j, i int) {
	dst.edge[j] = c.edge[i]
	dst.offset[j] = c.offset[i]
	dst.toward[j] = c.toward[i]
	dst.speed[j] = c.speed[i]
	if c.resting[i>>5]&(1<<uint(i&31)) != 0 {
		dst.resting[j>>5] |= 1 << uint(j&31)
	}
}
