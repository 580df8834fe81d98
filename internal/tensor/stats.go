package tensor

import (
	"math"
	"sort"
)

// MSE returns the mean squared error between two equal-length slices.
func MSE(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("tensor: MSE length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	s := 0.0
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += float64(d * d)
	}
	return s / float64(len(a))
}

// Percentile returns the p-th percentile (p in [0,100]) of the data
// using linear interpolation. The input is not modified.
func Percentile(data []float32, p float64) float64 {
	if len(data) == 0 {
		return 0
	}
	s := make([]float64, len(data))
	for i, v := range data {
		s[i] = float64(v)
	}
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := float64(p / 100 * float64(len(s)-1))
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return float64(s[lo]*(1-frac)) + float64(s[lo+1]*frac)
}

// KLDivergence computes KL(p || q) over two distributions with the
// standard smoothing used by TensorRT-style calibration: zero bins in q
// receive a tiny epsilon so the divergence stays finite.
func KLDivergence(p, q []float64) float64 {
	if len(p) != len(q) {
		panic("tensor: KL length mismatch")
	}
	const eps = 1e-12
	d := 0.0
	for i := range p {
		if p[i] <= 0 {
			continue
		}
		qi := q[i]
		if qi < eps {
			qi = eps
		}
		d += float64(p[i] * math.Log(p[i]/qi))
	}
	return d
}
