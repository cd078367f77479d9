package main

import (
	"math"
	"sort"
)

// Quantile is one percentile of a set of raw samples, with the evidence
// behind it: how many samples the set holds and how many lie beyond the
// percentile's rank. A percentile with fewer than ten samples beyond it
// rests on too few observations to compare.
type Quantile struct {
	Value  float64
	N      int
	Beyond int
}

// quantileOf returns the q-quantile (0 < q <= 1) of samples by the
// nearest-rank rule: the smallest sample with at least q of the set at or
// below it. It sorts samples in place. Computing it from the samples
// themselves, not from histogram buckets, keeps sub-millisecond latencies
// exact.
func quantileOf(samples []float64, q float64) Quantile {
	n := len(samples)
	if n == 0 {
		return Quantile{Value: math.NaN()}
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	return Quantile{Value: samples[rank-1], N: n, Beyond: n - rank}
}

// median returns the median of xs (the mean of the middle pair for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
