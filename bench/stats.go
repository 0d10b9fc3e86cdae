package main

import (
	"math"
	"sort"

	"objalloc/internal/stats"
)

// median of a sample; 0 for an empty one.
func median(v []float64) float64 { return stats.Summarize(v).P50 }

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the default "exclusive" method) —
// the rule the acceptance driver applies to ten runs of one metric.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	if m := median(v); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return 0
}
