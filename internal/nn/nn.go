// Package nn is a from-scratch, forward-only (inference) neural network
// framework: the substrate the quantization study runs on. It provides
// the operator set the paper quantizes — Convolution, Linear, MatMul,
// BatchMatMul, Embedding, EmbeddingBag, BatchNorm, LayerNorm, Add, Mul —
// plus the attention and residual blocks needed to assemble the model
// zoo in internal/models.
//
// Quantization is attached through hooks rather than graph rewriting:
// every quantizable leaf module embeds a QState whose function fields
// are installed by internal/quant. During calibration the Observe hook
// records activation statistics; after preparation the Input hook
// fake-quantizes activations on the fly and weights are fake-quantized
// in place (with FP32 masters retained for restore). This mirrors how
// the paper's emulation framework interposes on FP32 compute.
//
// Outputs are byte-identical on every architecture: a product that
// feeds an add is rounded explicitly (float32(x*y) or float64(x*y)),
// which the Go spec says prevents fusing it into a multiply-add. Targets
// such as arm64 would otherwise fuse where amd64 does not; make
// fma-audit checks the arm64 listing of every nn symbol.
package nn

import "fp8quant/internal/tensor"

// QuantFunc fake-quantizes src into dst (which may alias src). A nil
// QuantFunc means "keep FP32".
type QuantFunc func(dst, src []float32)

// ObserveFunc records activation values during calibration runs.
type ObserveFunc func(values []float32)

// QState holds the quantization hooks of a quantizable leaf module.
// The zero value is a plain FP32 module.
type QState struct {
	// Input fake-quantizes the input activation before compute.
	Input QuantFunc
	// Output fake-quantizes the module output (used by the extended
	// scheme for memory-bound ops like LayerNorm whose value is the
	// output tensor itself).
	Output QuantFunc
	// Observe records input activations during calibration.
	Observe ObserveFunc
	// ObserveOutput records output activations during calibration.
	ObserveOutput ObserveFunc
}

// applyIn runs the calibration and input-quantization hooks on x,
// returning either x itself (FP32 path) or a quantized copy carved
// from a (heap when a is nil).
func (q *QState) applyIn(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	if q.Observe != nil {
		q.Observe(x.Data)
	}
	if q.Input == nil {
		return x
	}
	out := a.New(x.Shape...)
	q.Input(out.Data, x.Data)
	return out
}

// applyOut runs the output-side hooks in place on y and returns it.
func (q *QState) applyOut(y *tensor.Tensor) *tensor.Tensor {
	if q.ObserveOutput != nil {
		q.ObserveOutput(y.Data)
	}
	if q.Output != nil {
		q.Output(y.Data, y.Data)
	}
	return y
}

// Reset clears all hooks, returning the module to pure FP32 behaviour.
func (q *QState) Reset() { *q = QState{} }

// Module is a unary computation node.
type Module interface {
	// Kind identifies the operator type ("Linear", "Conv2d",
	// "LayerNorm", ...) used by quantization schemes to select a
	// per-operator policy.
	Kind() string
	// Forward computes the module output for input x, carving every
	// intermediate and the output from a. A nil a means the heap
	// (tensor.Arena's nil semantics); a plan passes its arena. Both run
	// the same kernels in the same accumulation order — the arena only
	// replaces make — so planned and unplanned outputs are byte-equal.
	Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor
}

// Visitor is called for every module in a tree with its slash-separated
// path (e.g. "encoder/layer3/ffn/fc1").
type Visitor func(path string, m Module)

// Container is implemented by composite modules that own children.
type Container interface {
	// Visit calls v for each descendant leaf (and composite) module,
	// prefixing paths with the given path.
	Visit(path string, v Visitor)
}

// Walk traverses m (and its children, if it is a Container), invoking v
// for every module including m itself.
func Walk(m Module, v Visitor) {
	walk("", m, v)
}

// WalkChild visits m at the given path and recurses into it when it is
// a Container. Custom Container implementations outside this package
// call it from their Visit methods.
func WalkChild(path string, m Module, v Visitor) {
	walk(path, m, v)
}

func walk(path string, m Module, v Visitor) {
	v(path, m)
	if c, ok := m.(Container); ok {
		c.Visit(path, v)
	}
}

// Quantizable is implemented by leaf modules that carry quantization
// hooks. Q returns the module's QState for the quantizer to populate.
type Quantizable interface {
	Module
	Q() *QState
}

// Parametric is implemented by modules that own weight tensors eligible
// for weight quantization (bias vectors intentionally stay FP32, as in
// the paper's scheme).
type Parametric interface {
	Module
	// WeightTensor returns the module's weight.
	WeightTensor() *tensor.Tensor
	// OutChannelDim returns the weight dimension indexed by output
	// channel, over which per-channel scales are computed.
	OutChannelDim() int
}

// flatten2D views x as a matrix [rows, cols] where cols is the size of
// the last dimension. It panics if x has rank 0.
func flatten2D(x *tensor.Tensor) (rows, cols int) {
	cols = x.Shape[x.Rank()-1]
	rows = x.Len() / cols
	return rows, cols
}

// newLike carves a zeroed tensor shaped like x with the final dimension
// replaced by out (the Linear/matmul output shape). The fixed-size
// shape buffer stays on the stack, keeping planned forwards
// allocation-free.
func newLike(a *tensor.Arena, x *tensor.Tensor, out int) *tensor.Tensor {
	var buf [8]int
	r := x.Rank()
	if r > len(buf) {
		shape := append([]int(nil), x.Shape...)
		shape[r-1] = out
		return a.New(shape...)
	}
	copy(buf[:r], x.Shape)
	buf[r-1] = out
	return a.New(buf[:r]...)
}

// cloneInto is Clone with the copy carved from a: New + copy, the exact
// operation sequence of tensor.Clone, so element-wise modules built on
// it stay bit-identical under a plan.
func cloneInto(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	y := a.New(x.Shape...)
	copy(y.Data, x.Data)
	return y
}
