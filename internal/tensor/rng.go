package tensor

import "math"

// RNG is a deterministic SplitMix64 pseudo-random generator. Every
// source of randomness in the repository flows through RNG with an
// explicit seed so that experiments are bit-reproducible.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits (SplitMix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1). The compiler turns the
// division into a product by 2⁻⁵³; the conversion rounds it, so a
// caller that inlines Float64 cannot fuse it into a multiply-add.
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform integer in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal variate (Box-Muller).
func (r *RNG) Norm() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}

// FillNormal fills t with N(mean, std²) variates.
func (t *Tensor) FillNormal(r *RNG, mean, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(mean + float64(std*r.Norm()))
	}
}

// InjectOutliers replaces a fraction of elements with uniform values in
// [lo, hi), reproducing the outlier structure of NLP activations that
// Section 2 and Figure 1 analyze. Negative outliers mirror positives.
func (t *Tensor) InjectOutliers(r *RNG, fraction, lo, hi float64) {
	n := int(fraction * float64(t.Len()))
	for i := 0; i < n; i++ {
		idx := r.Intn(t.Len())
		v := r.Uniform(lo, hi)
		if r.Float64() < 0.5 {
			v = -v
		}
		t.Data[idx] = float32(v)
	}
}
