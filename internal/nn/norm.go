package nn

import (
	"fmt"
	"math"

	"fp8quant/internal/tensor"
)

// BatchNorm2d normalizes NCHW activations per channel using running
// statistics (inference mode). It supports a calibration mode that
// re-estimates the running mean/variance from data flowing through the
// (possibly quantized) network — the "BatchNorm Calibration" step of
// the paper's workflow (Figure 2, Figure 7).
type BatchNorm2d struct {
	C           int
	Gamma, Beta []float32
	Mean, Var   []float32
	Eps         float32
	// QS quantizes the output when the extended scheme covers
	// BatchNorm (memory-bound op: the tensor of interest is the
	// normalized output).
	QS QState

	// calibrating enables statistic accumulation during Forward.
	calibrating bool
	sum, sumSq  []float64
	count       int
}

// NewBatchNorm2d allocates a BatchNorm with identity affine parameters
// and unit variance.
func NewBatchNorm2d(c int) *BatchNorm2d {
	bn := &BatchNorm2d{
		C: c, Gamma: make([]float32, c), Beta: make([]float32, c),
		Mean: make([]float32, c), Var: make([]float32, c), Eps: 1e-5,
	}
	for i := 0; i < c; i++ {
		bn.Gamma[i] = 1
		bn.Var[i] = 1
	}
	return bn
}

// Kind implements Module.
func (bn *BatchNorm2d) Kind() string { return "BatchNorm" }

// Q implements Quantizable.
func (bn *BatchNorm2d) Q() *QState { return &bn.QS }

// StartCalibration begins accumulating batch statistics on every
// Forward call until FinishCalibration.
func (bn *BatchNorm2d) StartCalibration() {
	bn.calibrating = true
	bn.sum = make([]float64, bn.C)
	bn.sumSq = make([]float64, bn.C)
	bn.count = 0
}

// FinishCalibration replaces the running mean and variance with the
// statistics accumulated since StartCalibration.
func (bn *BatchNorm2d) FinishCalibration() {
	bn.calibrating = false
	if bn.count == 0 {
		return
	}
	n := float64(bn.count)
	for c := 0; c < bn.C; c++ {
		mu := bn.sum[c] / n
		v := bn.sumSq[c]/n - float64(mu*mu)
		if v < 0 {
			v = 0
		}
		bn.Mean[c] = float32(mu)
		bn.Var[c] = float32(v)
	}
	bn.sum, bn.sumSq = nil, nil
}

// Calibrating reports whether statistics accumulation is active.
func (bn *BatchNorm2d) Calibrating() bool { return bn.calibrating }

// Forward normalizes x [N,C,H,W] with the running statistics.
func (bn *BatchNorm2d) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 || x.Shape[1] != bn.C {
		panic(fmt.Sprintf("nn: BatchNorm2d expects [N,%d,H,W], got %v", bn.C, x.Shape))
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	hw := h * w
	if bn.calibrating {
		for ni := 0; ni < n; ni++ {
			for c := 0; c < bn.C; c++ {
				plane := x.Data[(ni*bn.C+c)*hw : (ni*bn.C+c+1)*hw]
				for _, v := range plane {
					bn.sum[c] += float64(v)
					bn.sumSq[c] += float64(float64(v) * float64(v))
				}
			}
		}
		bn.count += n * hw
	}
	y := a.New(x.Shape...)
	for ni := 0; ni < n; ni++ {
		for c := 0; c < bn.C; c++ {
			inv := bn.Gamma[c] / float32(math.Sqrt(float64(bn.Var[c])+float64(bn.Eps)))
			shift := bn.Beta[c] - float32(bn.Mean[c]*inv)
			src := x.Data[(ni*bn.C+c)*hw : (ni*bn.C+c+1)*hw]
			dst := y.Data[(ni*bn.C+c)*hw : (ni*bn.C+c+1)*hw]
			for i, v := range src {
				dst[i] = float32(v*inv) + shift
			}
		}
	}
	return bn.QS.applyOut(y)
}

// LayerNorm normalizes over the last dimension — the op whose presence
// amplifies activation outliers in transformer models (Wei et al.,
// 2022), making it the key coverage test for FP8 vs INT8.
type LayerNorm struct {
	Dim         int
	Gamma, Beta []float32
	Eps         float32
	// QS quantizes the output under the extended scheme.
	QS QState
}

// NewLayerNorm allocates an identity LayerNorm over dim features.
func NewLayerNorm(dim int) *LayerNorm {
	ln := &LayerNorm{Dim: dim, Gamma: make([]float32, dim), Beta: make([]float32, dim), Eps: 1e-5}
	for i := range ln.Gamma {
		ln.Gamma[i] = 1
	}
	return ln
}

// Kind implements Module.
func (ln *LayerNorm) Kind() string { return "LayerNorm" }

// Q implements Quantizable.
func (ln *LayerNorm) Q() *QState { return &ln.QS }

// Forward normalizes each trailing-dim vector of x.
func (ln *LayerNorm) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	rows, cols := flatten2D(x)
	if cols != ln.Dim {
		panic(fmt.Sprintf("nn: LayerNorm expects last dim %d, got %v", ln.Dim, x.Shape))
	}
	y := a.New(x.Shape...)
	for r := 0; r < rows; r++ {
		src := x.Data[r*cols : (r+1)*cols]
		dst := y.Data[r*cols : (r+1)*cols]
		var mu float64
		for _, v := range src {
			mu += float64(v)
		}
		mu /= float64(cols)
		var va float64
		for _, v := range src {
			d := float64(v) - mu
			va += float64(d * d)
		}
		va /= float64(cols)
		inv := float32(1 / math.Sqrt(va+float64(ln.Eps)))
		for i, v := range src {
			dst[i] = float32((v-float32(mu))*inv*ln.Gamma[i]) + ln.Beta[i]
		}
	}
	return ln.QS.applyOut(y)
}

// RMSNorm is the root-mean-square norm used by LLaMA-style models.
type RMSNorm struct {
	Dim   int
	Gamma []float32
	Eps   float32
	QS    QState
}

// NewRMSNorm allocates an identity RMSNorm.
func NewRMSNorm(dim int) *RMSNorm {
	rn := &RMSNorm{Dim: dim, Gamma: make([]float32, dim), Eps: 1e-6}
	for i := range rn.Gamma {
		rn.Gamma[i] = 1
	}
	return rn
}

// Kind implements Module.
func (rn *RMSNorm) Kind() string { return "RMSNorm" }

// Q implements Quantizable.
func (rn *RMSNorm) Q() *QState { return &rn.QS }

// Forward normalizes each trailing-dim vector by its RMS.
func (rn *RMSNorm) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	rows, cols := flatten2D(x)
	if cols != rn.Dim {
		panic(fmt.Sprintf("nn: RMSNorm expects last dim %d, got %v", rn.Dim, x.Shape))
	}
	y := a.New(x.Shape...)
	for r := 0; r < rows; r++ {
		src := x.Data[r*cols : (r+1)*cols]
		dst := y.Data[r*cols : (r+1)*cols]
		var ss float64
		for _, v := range src {
			ss += float64(float64(v) * float64(v))
		}
		inv := float32(1 / math.Sqrt(ss/float64(cols)+float64(rn.Eps)))
		for i, v := range src {
			dst[i] = v * inv * rn.Gamma[i]
		}
	}
	return rn.QS.applyOut(y)
}

// GroupNorm normalizes NCHW activations over channel groups (used by
// the diffusion U-Net).
type GroupNorm struct {
	C, Groups   int
	Gamma, Beta []float32
	Eps         float32
	QS          QState
}

// NewGroupNorm allocates an identity GroupNorm.
func NewGroupNorm(c, groups int) *GroupNorm {
	if c%groups != 0 {
		panic(fmt.Sprintf("nn: GroupNorm channels %d not divisible by groups %d", c, groups))
	}
	gn := &GroupNorm{C: c, Groups: groups, Gamma: make([]float32, c), Beta: make([]float32, c), Eps: 1e-5}
	for i := range gn.Gamma {
		gn.Gamma[i] = 1
	}
	return gn
}

// Kind implements Module.
func (gn *GroupNorm) Kind() string { return "GroupNorm" }

// Q implements Quantizable.
func (gn *GroupNorm) Q() *QState { return &gn.QS }

// Forward normalizes each channel group of x [N,C,H,W].
func (gn *GroupNorm) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 || x.Shape[1] != gn.C {
		panic(fmt.Sprintf("nn: GroupNorm expects [N,%d,H,W], got %v", gn.C, x.Shape))
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	hw := h * w
	cg := gn.C / gn.Groups
	y := a.New(x.Shape...)
	for ni := 0; ni < n; ni++ {
		for g := 0; g < gn.Groups; g++ {
			start := (ni*gn.C + g*cg) * hw
			end := start + cg*hw
			seg := x.Data[start:end]
			var mu float64
			for _, v := range seg {
				mu += float64(v)
			}
			mu /= float64(len(seg))
			var va float64
			for _, v := range seg {
				d := float64(v) - mu
				va += float64(d * d)
			}
			va /= float64(len(seg))
			inv := float32(1 / math.Sqrt(va+float64(gn.Eps)))
			for c := 0; c < cg; c++ {
				ch := g*cg + c
				src := x.Data[(ni*gn.C+ch)*hw : (ni*gn.C+ch+1)*hw]
				dst := y.Data[(ni*gn.C+ch)*hw : (ni*gn.C+ch+1)*hw]
				for i, v := range src {
					dst[i] = float32((v-float32(mu))*inv*gn.Gamma[ch]) + gn.Beta[ch]
				}
			}
		}
	}
	return gn.QS.applyOut(y)
}
