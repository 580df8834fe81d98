package nn

import (
	"fmt"

	"fp8quant/internal/tensor"
)

// Conv1d is a 1-D convolution over [N, C, T] tensors — the feature
// extractor op of wav2vec2/HuBERT-style speech models.
type Conv1d struct {
	InC, OutC int
	K         int
	Stride    int
	Pad       int
	// W has shape [OutC, InC, K].
	W *tensor.Tensor
	// B has length OutC; may be nil.
	B []float32
	// QS holds quantization hooks for the input activation.
	QS QState
}

// NewConv1d allocates a 1-D convolution with zero weights.
func NewConv1d(inC, outC, k, stride, pad int) *Conv1d {
	return &Conv1d{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		W: tensor.New(outC, inC, k),
		B: make([]float32, outC),
	}
}

// Kind implements Module. It reports "Conv2d" family semantics under
// the name "Conv1d"; quantization schemes treat both as Convolution.
func (c *Conv1d) Kind() string { return "Conv1d" }

// Q implements Quantizable.
func (c *Conv1d) Q() *QState { return &c.QS }

// WeightTensor implements Parametric.
func (c *Conv1d) WeightTensor() *tensor.Tensor { return c.W }

// OutChannelDim implements Parametric.
func (c *Conv1d) OutChannelDim() int { return 0 }

// OutSize returns the output length for input length t.
func (c *Conv1d) OutSize(t int) int { return (t+2*c.Pad-c.K)/c.Stride + 1 }

// Forward convolves x [N, InC, T] producing [N, OutC, T'].
func (c *Conv1d) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: Conv1d expects [N,%d,T], got %v", c.InC, x.Shape))
	}
	n, t := x.Shape[0], x.Shape[2]
	ot := c.OutSize(t)
	if ot <= 0 {
		panic(fmt.Sprintf("nn: Conv1d output empty for input %v", x.Shape))
	}
	// Output first: the quantized input copy after it is released
	// before the op returns.
	y := a.New(n, c.OutC, ot)
	m := a.Mark()
	x = c.QS.applyIn(a, x)
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < c.OutC; oc++ {
			var bias float32
			if c.B != nil {
				bias = c.B[oc]
			}
			for ox := 0; ox < ot; ox++ {
				acc := bias
				for ic := 0; ic < c.InC; ic++ {
					xRow := x.Data[(ni*c.InC+ic)*t:]
					wRow := c.W.Data[(oc*c.InC+ic)*c.K:]
					for k := 0; k < c.K; k++ {
						ix := ox*c.Stride - c.Pad + k
						if ix < 0 || ix >= t {
							continue
						}
						acc += float32(xRow[ix] * wRow[k])
					}
				}
				y.Data[(ni*c.OutC+oc)*ot+ox] = acc
			}
		}
	}
	a.Release(m)
	return c.QS.applyOut(y)
}
