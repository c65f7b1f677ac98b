package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank q-quantile of vals: after sorting,
// the element at index ⌈q·n⌉−1 (so p50 of [1 2 3 4] is 2). It returns 0
// for an empty sample. vals is not modified.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	return s[rank(len(s), q)]
}

// rank is the nearest-rank index ⌈q·n⌉−1, clamped to [0, n−1].
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
