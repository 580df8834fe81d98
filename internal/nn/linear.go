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
// panels are never cached.
func (l *Linear) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	rows, cols := flatten2D(x)
	if cols != l.In {
		panic(fmt.Sprintf("nn: Linear expects last dim %d, got shape %v", l.In, x.Shape))
	}
	x = l.QS.applyIn(a, x)
	y := newLike(a, x, l.Out)
	panel, pooled := scratch(a, kernels.PanelFloats(l.In, l.Out))
	defer kernels.PutScratch(pooled)
	kernels.PackTInto(panel, l.W.Data, l.In, l.Out)
	// Bias rides in the GEMM epilogue: acc = Σ_k x·w, then acc += b.
	// Planned forwards run serially (the pooled-closure fan-out
	// allocates); parallelism comes from one plan per worker, and the
	// kernels make serial and fanned-out runs byte-identical.
	kernels.GemmPacked(y.Data, x.Data, panel, rows, l.In, l.Out, kernels.Opt{Bias: l.B, Serial: a != nil})
	return l.QS.applyOut(y)
}

// matmulT computes y[r,o] = sum_k x[r,k] * w[o,k] for row-major
// buffers: x is [rows, in], w is [out, in], y is [rows, out].
// Accumulation is float32, matching typical FP8-with-FP32-accumulate
// hardware behaviour emulated by the paper. It is the scalar oracle
// the packed-GEMM Linear path is pinned against by the
// differential tests in kernels_diff_test.go: a single accumulator in
// ascending-k order, using the active variant's multiply-accumulate
// (two roundings on the generic/sse tiers, the exactly-rounded fused
// step on avx2).
func matmulT(y, x, w []float32, rows, in, out int) {
	madd := kernels.RefMadd(kernels.Active())
	for r := 0; r < rows; r++ {
		xr := x[r*in : (r+1)*in]
		yr := y[r*out : (r+1)*out]
		for o := 0; o < out; o++ {
			wo := w[o*in : (o+1)*in]
			var acc float32
			for k := range xr {
				acc = madd(acc, xr[k], wo[k])
			}
			yr[o] = acc
		}
	}
}

// MatMulOp is an explicit activation×activation matrix multiply leaf
// (torch.matmul between two tensors), quantized only by the extended
// scheme. Both operands are activations, so it carries two input hooks.
type MatMulOp struct {
	// QA and QB quantize the two operands.
	QA, QB QState
}

// Kind implements Module.
func (m *MatMulOp) Kind() string { return "MatMul" }

// Q returns the first operand's QState (Quantizable interface); use QB
// for the second operand.
func (m *MatMulOp) Q() *QState { return &m.QA }

// Forward is unsupported: MatMulOp is binary. Use Apply.
func (m *MatMulOp) Forward(*tensor.Arena, *tensor.Tensor) *tensor.Tensor {
	panic("nn: MatMulOp is binary; call Apply(a, x, y)")
}

// Apply multiplies x [.., M, K] by y [.., K, N] treating leading
// dimensions as batch (they must match); returns [.., M, N] carved
// from a. The y operand is the one the GEMM packs into panels, so when
// its QState carries a fused quantizer the fake-quant folds into
// packing — no quantized copy of y is materialized, and the result is
// bit-identical to the copy path by the RowQuantFactory contract.
func (m *MatMulOp) Apply(a *tensor.Arena, x, y *tensor.Tensor) *tensor.Tensor {
	return applyMatMul(a, &m.QA, &m.QB, x, y, false)
}

// applyMatMul runs a binary matmul leaf's input hooks and multiply,
// fusing y's fake-quant into panel packing when it has a fused form.
func applyMatMul(a *tensor.Arena, qx, qy *QState, x, y *tensor.Tensor, transB bool) *tensor.Tensor {
	x = qx.applyIn(a, x)
	if q := qy.fusedQuant(y); q != nil {
		return batchMatMul(a, x, y, transB, q)
	}
	return batchMatMul(a, x, qy.applyIn(a, y), transB, nil)
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

// Forward is unsupported: BatchMatMulOp is binary. Use Apply.
func (m *BatchMatMulOp) Forward(*tensor.Arena, *tensor.Tensor) *tensor.Tensor {
	panic("nn: BatchMatMulOp is binary; call Apply(a, x, y)")
}

// Apply performs the batched multiply of x by y (or yᵀ when
// TransposeB), carving from a; like MatMulOp, a fused quantizer on the
// y operand folds into panel packing.
func (m *BatchMatMulOp) Apply(a *tensor.Arena, x, y *tensor.Tensor) *tensor.Tensor {
	return applyMatMul(a, &m.QA, &m.QB, x, y, m.TransposeB)
}

// batchMatMul multiplies batched matrices: x is [batch..., M, K] and y
// is [batch..., K, N] (or [batch..., N, K] when transB); leading batch
// dims must match exactly. A non-nil q is a chunkable fake-quantizer
// (whole-tensor statistics already bound, see QState.fusedQuant)
// applied to y during panel packing — the fused form of
// quantize-y-then-multiply, byte-identical to it.
func batchMatMul(a *tensor.Arena, x, y *tensor.Tensor, transB bool, q kernels.QuantFunc) *tensor.Tensor {
	if x.Rank() < 2 || y.Rank() < 2 {
		panic("nn: BatchMatMul needs rank >= 2")
	}
	M := x.Shape[x.Rank()-2]
	K := x.Shape[x.Rank()-1]
	var N, yK int
	if transB {
		N = y.Shape[y.Rank()-2]
		yK = y.Shape[y.Rank()-1]
	} else {
		yK = y.Shape[y.Rank()-2]
		N = y.Shape[y.Rank()-1]
	}
	if yK != K {
		panic(fmt.Sprintf("nn: BatchMatMul inner dims mismatch: %v x %v (transB=%v)", x.Shape, y.Shape, transB))
	}
	batch := x.Len() / (M * K)
	if y.Len()/(K*N) != batch {
		panic(fmt.Sprintf("nn: BatchMatMul batch mismatch: %v x %v", x.Shape, y.Shape))
	}
	out := newLike2(a, x, M, N)
	m := bmm{out: out.Data, x: x.Data, y: y.Data, M: M, K: K, N: N, transB: transB, q: q}
	// Planned forwards and single matrices run the batch loop inline
	// (the GEMM itself fans out over rows when unplanned); unplanned
	// batches fan out over batch elements, one panel per chunk.
	if a != nil || batch == 1 {
		m.run(a, 0, batch, a != nil)
		return out
	}
	tensor.ParallelFor(batch, 1, func(lo, hi int) { m.run(nil, lo, hi, true) })
	return out
}

// bmm is one batched multiply's operands and geometry.
type bmm struct {
	out, x, y []float32
	M, K, N   int
	transB    bool
	q         kernels.QuantFunc
}

// run multiplies batch elements [lo, hi) through one panel (plus the
// fused quantizer's stage) from scratch. Both layouts route through the
// packed GEMM; per output element the accumulation stays ascending-k,
// matching the matmulT (transB) and k-outer (natural) oracles bit for
// bit.
func (m bmm) run(a *tensor.Arena, lo, hi int, serial bool) {
	M, K, N := m.M, m.K, m.N
	np, ns := kernels.PanelFloats(K, N), 0
	if m.q != nil {
		ns = kernels.QuantStageFloats(K, N)
	}
	buf, pooled := scratch(a, np+ns)
	defer kernels.PutScratch(pooled)
	panel, stage := buf[:np], buf[np:]
	for bi := lo; bi < hi; bi++ {
		ym := m.y[bi*K*N : (bi+1)*K*N]
		// Repacking overwrites the panel fully (including the zero
		// tail), so reuse across batch elements is exact.
		switch {
		case m.q != nil && m.transB:
			kernels.PackTQuantInto(panel, stage, ym, K, N, m.q)
		case m.q != nil:
			kernels.PackNQuantInto(panel, stage, ym, K, N, m.q)
		case m.transB:
			kernels.PackTInto(panel, ym, K, N)
		default:
			kernels.PackNInto(panel, ym, K, N)
		}
		kernels.GemmPacked(m.out[bi*M*N:(bi+1)*M*N], m.x[bi*M*K:(bi+1)*M*K], panel, M, K, N,
			kernels.Opt{Serial: serial})
	}
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
