package nn

import (
	"fmt"
	"math"

	"fp8quant/internal/tensor"
)

// MultiHeadAttention implements scaled dot-product attention with
// learned Q/K/V/output projections. The two activation×activation
// matrix multiplies (QKᵀ and PV) are explicit BatchMatMulOp leaves so
// the extended quantization scheme can cover them (the "BMM" rows of
// Figure 9).
type MultiHeadAttention struct {
	Dim, Heads int
	WQ, WK, WV *Linear
	WO         *Linear
	// QK and PV are the two batched matmuls inside attention.
	QK, PV BatchMatMulOp
	// Causal masks future positions (decoder-only LMs).
	Causal bool
	// Window > 0 restricts attention to a sliding local window
	// (Longformer-style).
	Window int
}

// NewMultiHeadAttention allocates an attention block with zero weights.
func NewMultiHeadAttention(dim, heads int) *MultiHeadAttention {
	if dim%heads != 0 {
		panic(fmt.Sprintf("nn: attention dim %d not divisible by heads %d", dim, heads))
	}
	return &MultiHeadAttention{
		Dim: dim, Heads: heads,
		WQ: NewLinear(dim, dim), WK: NewLinear(dim, dim),
		WV: NewLinear(dim, dim), WO: NewLinear(dim, dim),
		QK: BatchMatMulOp{TransposeB: true},
	}
}

// Kind implements Module.
func (m *MultiHeadAttention) Kind() string { return "MultiHeadAttention" }

// Visit implements Container.
func (m *MultiHeadAttention) Visit(path string, v Visitor) {
	walk(path+"/wq", m.WQ, v)
	walk(path+"/wk", m.WK, v)
	walk(path+"/wv", m.WV, v)
	walk(path+"/wo", m.WO, v)
	walk(path+"/qk", &m.QK, v)
	walk(path+"/pv", &m.PV, v)
}

// Forward runs self-attention over x [B,T,D].
func (m *MultiHeadAttention) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	return m.attend(a, x, x)
}

// attend runs attention with queries from x [B,Tq,D] and keys/values
// from kv [B,Tk,D]: self-attention passes kv = x. Causal and Window
// mask the scores; cross-attention leaves both unset. Only the output
// projection outlives the call; the projections, scores and context
// are released from a.
func (m *MultiHeadAttention) attend(a *tensor.Arena, x, kv *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 || x.Shape[2] != m.Dim {
		panic(fmt.Sprintf("nn: attention expects [B,T,%d], got %v", m.Dim, x.Shape))
	}
	tq, tk := x.Shape[1], kv.Shape[1]
	hd := m.Dim / m.Heads
	mark := a.Mark()

	q := splitHeads(a, m.WQ.Forward(a, x), m.Heads) // [B,H,Tq,hd]
	k := splitHeads(a, m.WK.Forward(a, kv), m.Heads)
	v := splitHeads(a, m.WV.Forward(a, kv), m.Heads)

	scores := m.QK.Apply(a, q, k) // [B,H,Tq,Tk]
	scale := float32(1 / math.Sqrt(float64(hd)))
	for i := range scores.Data {
		scores.Data[i] *= scale
	}
	m.mask(scores, tq, tk)

	probs := a.New(scores.Shape...)
	SoftmaxInto(probs.Data, scores.Data, tk)

	ctx := m.PV.Apply(a, probs, v) // [B,H,Tq,hd]
	return a.Keep(mark, m.WO.Forward(a, mergeHeads(a, ctx)))
}

// mask applies causal and/or sliding-window masking in place to scores
// [B,H,Tq,Tk].
func (m *MultiHeadAttention) mask(scores *tensor.Tensor, tq, tk int) {
	if !m.Causal && m.Window <= 0 {
		return
	}
	const negInf = float32(-1e30)
	for off := 0; off < scores.Len(); off += tq * tk {
		s := scores.Data[off : off+tq*tk]
		for i := 0; i < tq; i++ {
			for j := 0; j < tk; j++ {
				if m.Causal && j > i {
					s[i*tk+j] = negInf
				}
				if m.Window > 0 && abs(i-j) > m.Window {
					s[i*tk+j] = negInf
				}
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// splitHeads reshapes [B,T,D] to [B,H,T,D/H].
func splitHeads(a *tensor.Arena, x *tensor.Tensor, heads int) *tensor.Tensor {
	b, t, d := x.Shape[0], x.Shape[1], x.Shape[2]
	hd := d / heads
	y := a.New(b, heads, t, hd)
	for bi := 0; bi < b; bi++ {
		for ti := 0; ti < t; ti++ {
			for h := 0; h < heads; h++ {
				src := x.Data[(bi*t+ti)*d+h*hd : (bi*t+ti)*d+(h+1)*hd]
				dst := y.Data[((bi*heads+h)*t+ti)*hd:]
				copy(dst[:hd], src)
			}
		}
	}
	return y
}

// mergeHeads reshapes [B,H,T,hd] back to [B,T,D].
func mergeHeads(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	b, heads, t, hd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	d := heads * hd
	y := a.New(b, t, d)
	for bi := 0; bi < b; bi++ {
		for h := 0; h < heads; h++ {
			for ti := 0; ti < t; ti++ {
				src := x.Data[((bi*heads+h)*t+ti)*hd : ((bi*heads+h)*t+ti+1)*hd]
				dst := y.Data[(bi*t+ti)*d+h*hd:]
				copy(dst[:hd], src)
			}
		}
	}
	return y
}

// CrossAttention attends queries from x over keys/values from a memory
// tensor (encoder-decoder models: Marian, Pegasus).
type CrossAttention struct {
	*MultiHeadAttention
}

// NewCrossAttention allocates a cross-attention block.
func NewCrossAttention(dim, heads int) *CrossAttention {
	return &CrossAttention{NewMultiHeadAttention(dim, heads)}
}

// Kind implements Module.
func (c *CrossAttention) Kind() string { return "CrossAttention" }

// Attend runs attention with queries from x [B,Tq,D] and keys/values
// from mem [B,Tk,D], carving from a.
func (c *CrossAttention) Attend(a *tensor.Arena, x, mem *tensor.Tensor) *tensor.Tensor {
	return c.attend(a, x, mem)
}
