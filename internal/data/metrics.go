package data

import (
	"math"

	"fp8quant/internal/tensor"
)

// Argmax returns the index of the largest value in v.
func Argmax(v []float32) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	_ = v[best]
	return best
}

// Pearson returns the Pearson correlation between two score vectors
// (the STS-B metric).
func Pearson(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	n := float64(len(a))
	var sa, sb float64
	for i := range a {
		sa += a[i]
		sb += b[i]
	}
	ma, mb := sa/n, sb/n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += float64(da * db)
		va += float64(da * da)
		vb += float64(db * db)
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// FIDStats holds the Gaussian statistics of a feature set under the
// diagonal-covariance approximation: with diagonal covariances the
// matrix square root in the Fréchet distance factorizes exactly, giving
//
//	FID = ||μ1-μ2||² + Σ_d (√v1_d - √v2_d)²
//
// This is the exact Fréchet distance between axis-aligned Gaussians and
// preserves the ordering behaviour of full FID for quantization noise.
type FIDStats struct {
	Mean, Var []float64
	N         int
}

// ComputeFIDStats reduces a [n, d] feature tensor to its statistics.
func ComputeFIDStats(features *tensor.Tensor) FIDStats {
	d := features.Shape[features.Rank()-1]
	n := features.Len() / d
	st := FIDStats{Mean: make([]float64, d), Var: make([]float64, d), N: n}
	for r := 0; r < n; r++ {
		row := features.Data[r*d : (r+1)*d]
		for j, v := range row {
			st.Mean[j] += float64(v)
		}
	}
	for j := range st.Mean {
		st.Mean[j] /= float64(n)
	}
	for r := 0; r < n; r++ {
		row := features.Data[r*d : (r+1)*d]
		for j, v := range row {
			dv := float64(v) - st.Mean[j]
			st.Var[j] += float64(dv * dv)
		}
	}
	for j := range st.Var {
		st.Var[j] /= float64(n)
	}
	return st
}

// FID returns the Fréchet distance between two feature distributions
// (diagonal-Gaussian form). Lower is better; FID(X, X) == 0.
func FID(a, b FIDStats) float64 {
	d := 0.0
	for j := range a.Mean {
		dm := a.Mean[j] - b.Mean[j]
		ds := math.Sqrt(a.Var[j]) - math.Sqrt(b.Var[j])
		d += float64(dm*dm) + float64(ds*ds)
	}
	return d
}

// RelativeLoss returns the relative accuracy degradation of quantized
// vs baseline: (base - q) / base. The paper's pass criterion is
// RelativeLoss <= 1%.
func RelativeLoss(base, quantized float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - quantized) / base
}

// Passes reports whether a quantized accuracy meets the paper's 1%
// relative-loss criterion against the FP32 baseline.
func Passes(base, quantized float64) bool {
	return RelativeLoss(base, quantized) <= 0.01+1e-12
}
