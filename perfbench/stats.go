package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a reported tail percentile:
// a tail read off fewer samples than this moves with every run.
const minBeyond = 10

// tail returns the p-th percentile of xs (nearest rank), lowered to the
// highest percentile that still has at least minBeyond samples above it,
// together with the percentile actually used. With too few samples for any
// such percentile it falls back to the median.
func tail(xs []float64, p float64) (value, usedP float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	// The epsilon keeps float error (0.99*2000 = 1980.0000000000002) from
	// rounding the nearest rank up by one.
	k := int(math.Ceil(p*float64(n)-1e-9)) - 1
	if k > n-1-minBeyond {
		k = n - 1 - minBeyond
	}
	if k < (n-1)/2 {
		k = (n - 1) / 2
	}
	return s[k], float64(k+1) / float64(n)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
