package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// percentile returns the exact q-quantile (0 < q ≤ 1) of ascending samples
// by nearest rank: the smallest sample with at least q·n samples at or
// below it. No interpolation, no buckets — serve.Histogram's log₂ buckets
// hide any change under 2×.
func percentile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailLadder lists the tail percentiles the report may quote.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}

// highestPercentile returns the highest ladder percentile that still has at
// least ten samples beyond it (0 when even the median does not).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if float64(n)*(1-q) >= 10 {
			best = q
		}
	}
	return best
}

// median is Python's statistics.median (the mean of the two middle values
// when the count is even).
func median(v []float64) float64 { return stats.Percentile(v, 50) }

// quartiles is Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method) — the rule the driver applies to ten runs, so
// -compare and the calibration in README.md agree with it. Needs len ≥ 2.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(v)
	med := median(v)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}
