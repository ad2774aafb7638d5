package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail percentile read off fewer is one or two outliers, not a tail.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for no samples.
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

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them by default (the
// "exclusive" method: positions (len+1)·k/4, linearly interpolated, and
// extrapolated past the ends for tiny samples), so the spreads printed here
// match the ones the acceptance check computes. It needs two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, false
	}
	s := sorted(xs)
	m := len(s) + 1
	at := func(k int) float64 {
		j := min(max(k*m/4, 1), len(s)-1)
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), true
}

// percentileSupported reports whether n samples support the q-quantile:
// at least minBeyond of them must lie beyond it (p99 needs 1,000).
func percentileSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// percentile is the nearest-rank q-quantile of xs, reported only when the
// sample supports it (percentileSupported).
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 || !percentileSupported(len(xs), q) {
		return 0, false
	}
	s := sorted(xs)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank], true
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
