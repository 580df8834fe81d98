package nn

import (
	"fmt"

	"fp8quant/internal/tensor"
	"fp8quant/internal/tensor/kernels"
)

// Linear is a fully-connected layer: y = x·Wᵀ + b. The weight is stored
// as [Out, In] so that per-channel (per-output-row) scaling matches the
// paper's recommended weight quantization granularity.
type Linear struct {
	In, Out int
	// W has shape [Out, In].
	W *tensor.Tensor
	// B has length Out; may be nil for no bias.
	B []float32
	// QS holds quantization hooks for the input activation.
	QS QState
}

// NewLinear allocates a Linear layer with zero weights.
func NewLinear(in, out int) *Linear {
	return &Linear{In: in, Out: out, W: tensor.New(out, in), B: make([]float32, out)}
}

// Kind implements Module.
func (l *Linear) Kind() string { return "Linear" }

// Q implements Quantizable.
func (l *Linear) Q() *QState { return &l.QS }

// WeightTensor implements Parametric.
func (l *Linear) WeightTensor() *tensor.Tensor { return l.W }

// OutChannelDim implements Parametric: rows of W index output channels.
func (l *Linear) OutChannelDim() int { return 0 }

// Forward computes x·Wᵀ + b. x may have any leading shape as long as
// the final dimension equals In; the output replaces it with Out. The
// weight panel is repacked on every call — packing is a pure copy, and
// the weights themselves may be requantized in place between calls, so
// panels are never cached. The output is carved first; the quantized
// input copy and the panel are released before the op returns.
func (l *Linear) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	rows, cols := flatten2D(x)
	if cols != l.In {
		panic(fmt.Sprintf("nn: Linear expects last dim %d, got shape %v", l.In, x.Shape))
	}
	y := newLike(a, x, l.Out)
	m := a.Mark()
	x = l.QS.applyIn(a, x)
	panel := a.Alloc(kernels.PanelFloats(l.In, l.Out))
	kernels.PackTInto(panel, l.W.Data, l.In, l.Out)
	// Bias rides in the GEMM epilogue: acc = Σ_k x·w, then acc += b.
	kernels.GemmPacked(y.Data, x.Data, panel, rows, l.In, l.Out, kernels.Opt{Bias: l.B})
	a.Release(m)
	return l.QS.applyOut(y)
}

// BatchMatMulOp is the BMM leaf used inside attention (QKᵀ and PV).
type BatchMatMulOp struct {
	QA, QB QState
	// TransposeB multiplies by bᵀ over the last two dims.
	TransposeB bool
}

// Kind implements Module.
func (m *BatchMatMulOp) Kind() string { return "BatchMatMul" }

// Q returns the first operand's QState.
func (m *BatchMatMulOp) Q() *QState { return &m.QA }

// Operands returns the first and second operand's QStates.
func (m *BatchMatMulOp) Operands() (a, b *QState) { return &m.QA, &m.QB }

// Forward is unsupported: BatchMatMulOp is binary. Use Apply.
func (m *BatchMatMulOp) Forward(*tensor.Arena, *tensor.Tensor) *tensor.Tensor {
	panic("nn: BatchMatMulOp is binary; call Apply(a, x, y)")
}

// Apply performs the batched multiply of x by y (or yᵀ when
// TransposeB) after the operands' input hooks: x is [batch..., M, K]
// and y is [batch..., K, N] (or [batch..., N, K] when transposed);
// leading batch dims must match exactly. The output is carved from a
// first; the quantized operand copies and the panel are released
// before Apply returns.
func (m *BatchMatMulOp) Apply(a *tensor.Arena, x, y *tensor.Tensor) *tensor.Tensor {
	if x.Rank() < 2 || y.Rank() < 2 {
		panic("nn: BatchMatMul needs rank >= 2")
	}
	M := x.Shape[x.Rank()-2]
	K := x.Shape[x.Rank()-1]
	var N, yK int
	if m.TransposeB {
		N = y.Shape[y.Rank()-2]
		yK = y.Shape[y.Rank()-1]
	} else {
		yK = y.Shape[y.Rank()-2]
		N = y.Shape[y.Rank()-1]
	}
	if yK != K {
		panic(fmt.Sprintf("nn: BatchMatMul inner dims mismatch: %v x %v (transB=%v)", x.Shape, y.Shape, m.TransposeB))
	}
	batch := x.Len() / (M * K)
	if y.Len()/(K*N) != batch {
		panic(fmt.Sprintf("nn: BatchMatMul batch mismatch: %v x %v", x.Shape, y.Shape))
	}
	out := newLike2(a, x, M, N)
	mark := a.Mark()
	x, y = m.QA.applyIn(a, x), m.QB.applyIn(a, y)
	// Both layouts route through the packed GEMM with one panel reused
	// across the batch; per output element the accumulation stays
	// ascending-k, matching the matmulT (transB) and k-outer (natural)
	// oracles bit for bit.
	panel := a.Alloc(kernels.PanelFloats(K, N))
	for bi := 0; bi < batch; bi++ {
		ym := y.Data[bi*K*N : (bi+1)*K*N]
		// Repacking overwrites the panel fully (including the zero
		// tail), so reuse across batch elements is exact.
		if m.TransposeB {
			kernels.PackTInto(panel, ym, K, N)
		} else {
			kernels.PackNInto(panel, ym, K, N)
		}
		kernels.GemmPacked(out.Data[bi*M*N:(bi+1)*M*N], x.Data[bi*M*K:(bi+1)*M*K], panel, M, K, N, kernels.Opt{})
	}
	a.Release(mark)
	return out
}

// newLike2 carves the [.., M, N] output shape for a batched matmul
// whose batch dims come from a, without heap-allocating the shape.
func newLike2(ar *tensor.Arena, a *tensor.Tensor, M, N int) *tensor.Tensor {
	var buf [8]int
	r := a.Rank()
	if r > len(buf) {
		shape := append(append([]int(nil), a.Shape[:r-2]...), M, N)
		return ar.New(shape...)
	}
	copy(buf[:r-2], a.Shape[:r-2])
	buf[r-2], buf[r-1] = M, N
	return ar.New(buf[:r]...)
}
