package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0..1) of vs by linear interpolation
// between order statistics, the same rule as numpy's default. vs need not be
// sorted; it is not modified. NaN when vs is empty.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t / float64(len(vs))
}

// windowedP95 splits vs, in the order given (completion order), into three
// equal consecutive windows and returns the median of the three windows'
// 95th percentiles. One host stall lands in one window and so cannot move
// the reported value; a sustained tail shift moves all three. A window needs
// minWindow samples for its own p95 to rest on ten samples beyond it; with
// fewer, the plain p95 of the whole section is the steadier estimate.
func windowedP95(vs []float64) float64 {
	const windows, minWindow = 3, 200
	if len(vs) < windows*minWindow {
		return percentile(vs, 0.95)
	}
	n := len(vs) / windows
	p := make([]float64, windows)
	for i := range p {
		end := (i + 1) * n
		if i == windows-1 {
			end = len(vs)
		}
		p[i] = percentile(vs[i*n:end], 0.95)
	}
	return median(p)
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles computed as Python's
// statistics.quantiles(vs, n=4) does (the "exclusive" method): the measure
// the benchmark contract uses for run-to-run steadiness.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		// statistics.quantiles exclusive: position k*(n+1)/4, 1-based.
		m := len(s) + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := k*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return math.NaN()
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// histQuantile estimates a quantile from cumulative Prometheus-style bucket
// counts (le upper bounds ascending, last +Inf), returning the upper bound
// of the bucket the quantile falls in. 0 when the histogram is empty.
func histQuantile(les []float64, cum []float64, q float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	target := q * cum[len(cum)-1]
	for i, c := range cum {
		if c >= target {
			if math.IsInf(les[i], 1) && i > 0 {
				return les[i-1]
			}
			return les[i]
		}
	}
	return les[len(les)-1]
}
