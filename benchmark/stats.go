package main

import (
	"sort"

	"dpq/internal/mathx"
)

// sample is a set of measurements of one quantity, sorted on first use.
type sample struct {
	v      []float64
	sorted bool
}

func (s *sample) add(x float64) { s.v = append(s.v, x); s.sorted = false }

func (s *sample) n() int { return len(s.v) }

func (s *sample) sort() {
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
}

// quantile is the repo's nearest-rank quantile; 0 for an empty sample.
func (s *sample) quantile(q float64) float64 {
	if len(s.v) == 0 {
		return 0
	}
	s.sort()
	return s.v[mathx.NearestRank(len(s.v), q)]
}

func (s *sample) median() float64 { return s.quantile(0.5) }

// tailQuantiles are the candidate tail percentiles, lowest first.
var tailQuantiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer and the "percentile" is a handful of outliers.
const minBeyond = 10

// highestQuantile returns the highest candidate quantile that still has at
// least minBeyond samples beyond it in a sample of n, and 0 when even the
// median has not.
func highestQuantile(n int) float64 {
	best := 0.0
	for _, q := range tailQuantiles {
		// ⌈q·n⌉ samples lie at or below the quantile.
		if n-(mathx.NearestRank(n, q)+1) >= minBeyond {
			best = q
		}
	}
	return best
}

// supports reports whether a sample of n has minBeyond samples beyond q.
func supports(n int, q float64) bool { return highestQuantile(n) >= q }

// quartiles returns the first, second and third quartile by linear
// interpolation between closest ranks, the "exclusive" method of Python's
// statistics.quantiles(values, n=4) that the driver applies to run sets.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return v[0], v[0], v[0]
	}
	at := func(i int) float64 {
		// Position i·(n+1)/4 on a 1-based scale; the rank is clamped to the
		// sample before the remainder is taken, as Python does.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
