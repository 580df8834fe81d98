package nn

import (
	"math"

	"fp8quant/internal/tensor"
)

// ReLU applies max(0, x) element-wise.
type ReLU struct{}

// Kind implements Module.
func (ReLU) Kind() string { return "ReLU" }

// Forward applies the activation.
func (ReLU) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	y := cloneInto(a, x)
	for i, v := range y.Data {
		if v < 0 {
			y.Data[i] = 0
		}
	}
	return y
}

// GELU applies the Gaussian error linear unit (tanh approximation, as
// used by BERT/GPT implementations).
type GELU struct{}

// Kind implements Module.
func (GELU) Kind() string { return "GELU" }

// Forward applies the activation.
func (GELU) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	y := cloneInto(a, x)
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range y.Data {
		f := float64(v)
		y.Data[i] = float32(0.5 * f * (1 + math.Tanh(c*(f+float64(0.044715*f*f*f)))))
	}
	return y
}

// SiLU applies x*sigmoid(x) (a.k.a. swish; used by EfficientNet and
// LLaMA's SwiGLU gate).
type SiLU struct{}

// Kind implements Module.
func (SiLU) Kind() string { return "SiLU" }

// Forward applies the activation.
func (SiLU) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	y := cloneInto(a, x)
	for i, v := range y.Data {
		f := float64(v)
		y.Data[i] = float32(f / (1 + math.Exp(-f)))
	}
	return y
}

// Sigmoid applies the logistic function.
type Sigmoid struct{}

// Kind implements Module.
func (Sigmoid) Kind() string { return "Sigmoid" }

// Forward applies the activation.
func (Sigmoid) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	y := cloneInto(a, x)
	for i, v := range y.Data {
		y.Data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	return y
}

// Tanh applies the hyperbolic tangent.
type Tanh struct{}

// Kind implements Module.
func (Tanh) Kind() string { return "Tanh" }

// Forward applies the activation.
func (Tanh) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	y := cloneInto(a, x)
	for i, v := range y.Data {
		y.Data[i] = float32(math.Tanh(float64(v)))
	}
	return y
}

// HardSwish applies x*relu6(x+3)/6 (MobileNetV3).
type HardSwish struct{}

// Kind implements Module.
func (HardSwish) Kind() string { return "HardSwish" }

// Forward applies the activation.
func (HardSwish) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	y := cloneInto(a, x)
	for i, v := range y.Data {
		r := v + 3
		if r < 0 {
			r = 0
		} else if r > 6 {
			r = 6
		}
		y.Data[i] = v * r / 6
	}
	return y
}

// Softmax normalizes the last dimension into a probability simplex.
type Softmax struct{}

// Kind implements Module.
func (Softmax) Kind() string { return "Softmax" }

// Forward applies a numerically-stable softmax over the last dim.
func (Softmax) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	y := a.New(x.Shape...)
	SoftmaxInto(y.Data, x.Data, x.Shape[x.Rank()-1])
	return y
}

// SoftmaxInto writes row-wise softmax of src into dst, with rows of
// length cols.
func SoftmaxInto(dst, src []float32, cols int) {
	rows := len(src) / cols
	for r := 0; r < rows; r++ {
		s := src[r*cols : (r+1)*cols]
		d := dst[r*cols : (r+1)*cols]
		maxV := s[0]
		for _, v := range s {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for i, v := range s {
			e := math.Exp(float64(v - maxV))
			d[i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := range d {
			d[i] *= inv
		}
	}
}

// AddOp is the element-wise addition leaf quantized by the extended
// scheme (residual connections).
type AddOp struct {
	QA, QB QState
}

// Kind implements Module.
func (op *AddOp) Kind() string { return "Add" }

// Q returns the first operand's QState.
func (op *AddOp) Q() *QState { return &op.QA }

// Operands returns the first and second operand's QStates.
func (op *AddOp) Operands() (a, b *QState) { return &op.QA, &op.QB }

// Forward is unsupported: AddOp is binary. Use Apply.
func (op *AddOp) Forward(*tensor.Arena, *tensor.Tensor) *tensor.Tensor {
	panic("nn: AddOp is binary; call Apply(a, x, y)")
}

// Apply returns x + y element-wise, carved from a; the quantized
// operand copies are released before it returns.
func (op *AddOp) Apply(a *tensor.Arena, x, y *tensor.Tensor) *tensor.Tensor {
	if x.Len() != y.Len() {
		panic("nn: AddOp size mismatch")
	}
	out := a.New(x.Shape...)
	m := a.Mark()
	x = op.QA.applyIn(a, x)
	y = op.QB.applyIn(a, y)
	for i := range out.Data {
		out.Data[i] = x.Data[i] + y.Data[i]
	}
	a.Release(m)
	return out
}

// MulOp is the element-wise multiplication leaf (gating, SE scaling).
type MulOp struct {
	QA, QB QState
}

// Kind implements Module.
func (m *MulOp) Kind() string { return "Mul" }

// Q returns the first operand's QState.
func (m *MulOp) Q() *QState { return &m.QA }

// Operands returns the first and second operand's QStates.
func (m *MulOp) Operands() (a, b *QState) { return &m.QA, &m.QB }

// Forward is unsupported: MulOp is binary. Use Apply.
func (m *MulOp) Forward(*tensor.Arena, *tensor.Tensor) *tensor.Tensor {
	panic("nn: MulOp is binary; call Apply(a, x, y)")
}

// Apply returns x * y element-wise, carved from a. If y has exactly one
// value per leading row of x (e.g. per-channel SE scale [N,C] against
// [N,C,H,W]), it broadcasts. The quantized operand copies are released
// before it returns.
func (m *MulOp) Apply(a *tensor.Arena, x, y *tensor.Tensor) *tensor.Tensor {
	out := a.New(x.Shape...)
	mark := a.Mark()
	x = m.QA.applyIn(a, x)
	y = m.QB.applyIn(a, y)
	switch {
	case x.Len() == y.Len():
		for i := range out.Data {
			out.Data[i] = x.Data[i] * y.Data[i]
		}
	case x.Len()%y.Len() == 0:
		// Broadcast y over trailing block of x: x viewed as
		// [len(y), block].
		block := x.Len() / y.Len()
		for j := 0; j < y.Len(); j++ {
			s := y.Data[j]
			seg := x.Data[j*block : (j+1)*block]
			dst := out.Data[j*block : (j+1)*block]
			for i, v := range seg {
				dst[i] = v * s
			}
		}
	default:
		panic("nn: MulOp incompatible shapes")
	}
	a.Release(mark)
	return out
}
