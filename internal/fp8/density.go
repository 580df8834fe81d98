package fp8

import "math"

// Density returns the density of representable values of the format
// around magnitude n, following Appendix A.1 of the paper:
//
//	D_EeMm(N) = 2^(m - floor(log2 N))
//
// i.e. the number of representable grid points per unit interval in the
// binade containing N. Smaller magnitudes are represented more densely;
// each additional mantissa bit doubles the density.
func (f Format) Density(n float64) float64 {
	if n <= 0 || math.IsNaN(n) || math.IsInf(n, 0) {
		return math.Inf(1)
	}
	return math.Ldexp(1, int(f.ManBits)-int(math.Floor(math.Log2(n))))
}
