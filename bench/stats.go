package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that Python's
// statistics.quantiles(xs, n=4) returns (the default "exclusive"
// method), which is how the spread of a set of runs is judged. With
// fewer than two values every quartile is that value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		// Clamped to 1 <= j <= n-1 before delta, exactly as Python does
		// (so tiny samples extrapolate the same way).
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread returns the distance between the first and third quartile as
// a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailRank is the number of samples at or below the reported tail: the
// highest percentile with at least ten samples beyond it, never below
// the median. 30 samples give rank 20 (p66), 96 give rank 86 (p89).
func tailRank(n int) int {
	k := n - 10
	if half := (n + 1) / 2; k < half {
		k = half
	}
	return k
}

// tail returns the tailRank-th smallest of xs (0 for none).
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[tailRank(len(xs))-1]
}
