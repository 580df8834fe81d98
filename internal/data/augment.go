package data

import "fp8quant/internal/tensor"

// Transform maps an image batch to an augmented batch. Figure 7 of the
// paper compares "training transform" (randomized augmentation) against
// "inference transform" (deterministic preprocessing) for BatchNorm
// calibration data; these are the Go equivalents.
type Transform func(x *tensor.Tensor, r *tensor.RNG) *tensor.Tensor

// AugmentTraining applies the training-style transform: random shift
// (crop with reflection padding), random horizontal flip, and additive
// brightness/contrast jitter. The paper found this feature diversity
// improves BatchNorm statistics quality at small sample sizes.
func AugmentTraining(x *tensor.Tensor, r *tensor.RNG) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	y := tensor.New(x.Shape...)
	for ni := 0; ni < n; ni++ {
		dy := r.Intn(3) - 1
		dx := r.Intn(3) - 1
		flip := r.Float64() < 0.5
		gain := float32(r.Uniform(0.8, 1.2))
		bias := float32(r.Uniform(-0.1, 0.1))
		for ci := 0; ci < c; ci++ {
			for yy := 0; yy < h; yy++ {
				sy := reflect(yy+dy, h)
				for xx := 0; xx < w; xx++ {
					sx := reflect(xx+dx, w)
					if flip {
						sx = w - 1 - sx
					}
					v := x.At(ni, ci, sy, sx)
					y.Set(float32(v*gain)+bias, ni, ci, yy, xx)
				}
			}
		}
	}
	return y
}

// AugmentInference applies the deterministic inference-style transform:
// a centre-preserving identity pass with fixed normalization (no
// randomness), matching validation preprocessing.
func AugmentInference(x *tensor.Tensor, r *tensor.RNG) *tensor.Tensor {
	// Normalize each image to zero mean, matching a fixed
	// mean-subtraction preprocessing pipeline.
	n := x.Shape[0]
	per := x.Len() / n
	y := x.Clone()
	for ni := 0; ni < n; ni++ {
		seg := y.Data[ni*per : (ni+1)*per]
		var mu float64
		for _, v := range seg {
			mu += float64(v)
		}
		mu /= float64(per)
		for i := range seg {
			seg[i] -= float32(mu)
		}
	}
	return y
}

// reflect mirrors index i into [0, n).
func reflect(i, n int) int {
	if i < 0 {
		return -i
	}
	if i >= n {
		return 2*n - 2 - i
	}
	return i
}
