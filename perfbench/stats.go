package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile of xs (0 for an
// empty slice). xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median returns the median of xs without reordering the caller's slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// minimum returns the smallest of xs (0 for an empty slice).
func minimum(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

// roundMins returns, for each of the k operations of a round, the
// smallest of its samples over the rounds; xs holds whole rounds of k
// samples each, one round after another.
func roundMins(xs []float64, k int) []float64 {
	out := make([]float64, k)
	copy(out, xs)
	for j := k; j < len(xs); j++ {
		out[j%k] = math.Min(out[j%k], xs[j])
	}
	return out
}

// maxRateAtSLO finds the highest offered rate that meets the SLO: it
// walks the ascending ladder until the first rung that fails, then
// bisects the gap between the last passing rung and that one `steps`
// times. A ladder whose every rung passes returns its top rung; one
// whose first rung fails returns 0. meets reports whether a rate meets
// the SLO; its first error aborts the search.
func maxRateAtSLO(ladder []float64, steps int, meets func(rate float64) (bool, error)) (float64, error) {
	lo, hi := 0.0, 0.0
	for _, rate := range ladder {
		ok, err := meets(rate)
		if err != nil {
			return 0, err
		}
		if !ok {
			hi = rate
			break
		}
		lo = rate
	}
	if hi == 0 || lo == 0 {
		return lo, nil
	}
	for i := 0; i < steps; i++ {
		mid := (lo + hi) / 2
		ok, err := meets(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
