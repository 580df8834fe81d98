package nn

import (
	"fmt"

	"fp8quant/internal/tensor"
)

// Sequential chains modules, feeding each output to the next.
type Sequential struct {
	Names   []string
	Modules []Module
}

// NewSequential builds a chain; names default to "<index>:<kind>".
func NewSequential(mods ...Module) *Sequential {
	s := &Sequential{}
	for _, m := range mods {
		s.Add("", m)
	}
	return s
}

// Add appends a named module and returns s for chaining.
func (s *Sequential) Add(name string, m Module) *Sequential {
	if name == "" {
		name = fmt.Sprintf("%d:%s", len(s.Modules), m.Kind())
	}
	s.Names = append(s.Names, name)
	s.Modules = append(s.Modules, m)
	return s
}

// Kind implements Module.
func (s *Sequential) Kind() string { return "Sequential" }

// Visit implements Container.
func (s *Sequential) Visit(path string, v Visitor) {
	for i, m := range s.Modules {
		walk(path+"/"+s.Names[i], m, v)
	}
}

// Forward runs the chain. Each child's output moves down over its
// input (Arena.Keep), so a planned chain holds one activation plus the
// running child's temporaries, never the whole chain's.
func (s *Sequential) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	m := a.Mark()
	for _, mod := range s.Modules {
		x = a.Keep(m, mod.Forward(a, x))
	}
	return x
}

// ResidualBlock is the ResNet basic block: two 3×3 convs with
// BatchNorm and an additive skip (1×1 projection when shapes change).
type ResidualBlock struct {
	Conv1, Conv2 *Conv2d
	BN1, BN2     *BatchNorm2d
	Proj         *Conv2d // nil for identity skip
	ProjBN       *BatchNorm2d
	Skip         AddOp
}

// NewResidualBlock builds a basic block; stride > 1 or channel change
// adds a projection shortcut.
func NewResidualBlock(inC, outC, stride int) *ResidualBlock {
	b := &ResidualBlock{
		Conv1: NewConv2d(inC, outC, 3, stride, 1, 1),
		Conv2: NewConv2d(outC, outC, 3, 1, 1, 1),
		BN1:   NewBatchNorm2d(outC),
		BN2:   NewBatchNorm2d(outC),
	}
	if stride != 1 || inC != outC {
		b.Proj = NewConv2d(inC, outC, 1, stride, 0, 1)
		b.ProjBN = NewBatchNorm2d(outC)
	}
	return b
}

// Kind implements Module.
func (b *ResidualBlock) Kind() string { return "ResidualBlock" }

// Visit implements Container.
func (b *ResidualBlock) Visit(path string, v Visitor) {
	walk(path+"/conv1", b.Conv1, v)
	walk(path+"/bn1", b.BN1, v)
	walk(path+"/conv2", b.Conv2, v)
	walk(path+"/bn2", b.BN2, v)
	if b.Proj != nil {
		walk(path+"/proj", b.Proj, v)
		walk(path+"/projbn", b.ProjBN, v)
	}
	walk(path+"/skip", &b.Skip, v)
}

// Forward runs the block with ReLU activations.
func (b *ResidualBlock) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	var relu ReLU
	h := relu.Forward(a, b.BN1.Forward(a, b.Conv1.Forward(a, x)))
	h = b.BN2.Forward(a, b.Conv2.Forward(a, h))
	skip := x
	if b.Proj != nil {
		skip = b.ProjBN.Forward(a, b.Proj.Forward(a, x))
	}
	return relu.Forward(a, b.Skip.Apply(a, h, skip))
}

// SEBlock is a squeeze-and-excitation channel-attention block
// (SE-ResNeXt, EfficientNet). Its Sigmoid-gated Mul is one of the
// element-wise ops the extended scheme covers.
type SEBlock struct {
	C       int
	FC1     *Linear
	FC2     *Linear
	Gate    MulOp
	Squeeze GlobalAvgPool
}

// NewSEBlock builds an SE block with the given reduction ratio.
func NewSEBlock(c, reduction int) *SEBlock {
	mid := c / reduction
	if mid < 1 {
		mid = 1
	}
	return &SEBlock{C: c, FC1: NewLinear(c, mid), FC2: NewLinear(mid, c)}
}

// Kind implements Module.
func (s *SEBlock) Kind() string { return "SEBlock" }

// Visit implements Container.
func (s *SEBlock) Visit(path string, v Visitor) {
	walk(path+"/fc1", s.FC1, v)
	walk(path+"/fc2", s.FC2, v)
	walk(path+"/gate", &s.Gate, v)
}

// Forward scales channels of x [N,C,H,W] by learned gates, releasing
// the gate computation's temporaries.
func (s *SEBlock) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	var relu ReLU
	var sig Sigmoid
	m := a.Mark()
	z := s.Squeeze.Forward(a, x) // [N,C]
	z = sig.Forward(a, s.FC2.Forward(a, relu.Forward(a, s.FC1.Forward(a, z))))
	return a.Keep(m, s.Gate.Apply(a, x, z))
}

// FFN is the transformer feed-forward block: fc1 → activation → fc2.
type FFN struct {
	FC1, FC2 *Linear
	Act      Module
}

// NewFFN builds a GELU feed-forward block.
func NewFFN(dim, hidden int) *FFN {
	return &FFN{FC1: NewLinear(dim, hidden), FC2: NewLinear(hidden, dim), Act: GELU{}}
}

// Kind implements Module.
func (f *FFN) Kind() string { return "FFN" }

// Visit implements Container.
func (f *FFN) Visit(path string, v Visitor) {
	walk(path+"/fc1", f.FC1, v)
	walk(path+"/fc2", f.FC2, v)
}

// Forward runs the block, releasing the hidden activation from a.
func (f *FFN) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	m := a.Mark()
	return a.Keep(m, f.FC2.Forward(a, f.Act.Forward(a, f.FC1.Forward(a, x))))
}

// SwiGLU is the gated feed-forward used by LLaMA: (SiLU(xW1) * xW3)W2.
type SwiGLU struct {
	W1, W2, W3 *Linear
	Gate       MulOp
}

// NewSwiGLU builds a gated FFN.
func NewSwiGLU(dim, hidden int) *SwiGLU {
	return &SwiGLU{
		W1: NewLinear(dim, hidden), W2: NewLinear(hidden, dim), W3: NewLinear(dim, hidden),
	}
}

// Kind implements Module.
func (s *SwiGLU) Kind() string { return "SwiGLU" }

// Visit implements Container.
func (s *SwiGLU) Visit(path string, v Visitor) {
	walk(path+"/w1", s.W1, v)
	walk(path+"/w2", s.W2, v)
	walk(path+"/w3", s.W3, v)
	walk(path+"/gate", &s.Gate, v)
}

// Forward runs the gated block, releasing the hidden activations from
// a.
func (s *SwiGLU) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	var silu SiLU
	m := a.Mark()
	return a.Keep(m, s.W2.Forward(a, s.Gate.Apply(a, silu.Forward(a, s.W1.Forward(a, x)), s.W3.Forward(a, x))))
}

// TransformerEncoderLayer is a post-norm encoder block (BERT style):
// x = LN(x + Attn(x)); x = LN(x + FFN(x)).
type TransformerEncoderLayer struct {
	Attn       *MultiHeadAttention
	FF         *FFN
	LN1, LN2   *LayerNorm
	Res1, Res2 AddOp
}

// NewTransformerEncoderLayer builds a BERT-style encoder layer.
func NewTransformerEncoderLayer(dim, heads, ffHidden int) *TransformerEncoderLayer {
	return &TransformerEncoderLayer{
		Attn: NewMultiHeadAttention(dim, heads),
		FF:   NewFFN(dim, ffHidden),
		LN1:  NewLayerNorm(dim),
		LN2:  NewLayerNorm(dim),
	}
}

// Kind implements Module.
func (l *TransformerEncoderLayer) Kind() string { return "TransformerEncoderLayer" }

// Visit implements Container.
func (l *TransformerEncoderLayer) Visit(path string, v Visitor) {
	walk(path+"/attn", l.Attn, v)
	walk(path+"/ffn", l.FF, v)
	walk(path+"/ln1", l.LN1, v)
	walk(path+"/ln2", l.LN2, v)
	walk(path+"/res1", &l.Res1, v)
	walk(path+"/res2", &l.Res2, v)
}

// Forward runs the layer. Each half's output moves down over its
// input, so the layer leaves one activation behind in a.
func (l *TransformerEncoderLayer) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	m := a.Mark()
	x = a.Keep(m, l.LN1.Forward(a, l.Res1.Apply(a, x, l.Attn.Forward(a, x))))
	return a.Keep(m, l.LN2.Forward(a, l.Res2.Apply(a, x, l.FF.Forward(a, x))))
}

// TransformerDecoderLayer is a pre-norm causal decoder block (GPT
// style): x = x + Attn(LN(x)); x = x + FFN(LN(x)).
type TransformerDecoderLayer struct {
	Attn       *MultiHeadAttention
	FF         Module // *FFN or *SwiGLU
	LN1, LN2   Module // *LayerNorm or *RMSNorm
	Res1, Res2 AddOp
}

// NewTransformerDecoderLayer builds a GPT-style pre-norm decoder layer.
func NewTransformerDecoderLayer(dim, heads, ffHidden int) *TransformerDecoderLayer {
	attn := NewMultiHeadAttention(dim, heads)
	attn.Causal = true
	return &TransformerDecoderLayer{
		Attn: attn,
		FF:   NewFFN(dim, ffHidden),
		LN1:  NewLayerNorm(dim),
		LN2:  NewLayerNorm(dim),
	}
}

// NewLlamaDecoderLayer builds a LLaMA-style layer (RMSNorm + SwiGLU).
func NewLlamaDecoderLayer(dim, heads, ffHidden int) *TransformerDecoderLayer {
	attn := NewMultiHeadAttention(dim, heads)
	attn.Causal = true
	return &TransformerDecoderLayer{
		Attn: attn,
		FF:   NewSwiGLU(dim, ffHidden),
		LN1:  NewRMSNorm(dim),
		LN2:  NewRMSNorm(dim),
	}
}

// Kind implements Module.
func (l *TransformerDecoderLayer) Kind() string { return "TransformerDecoderLayer" }

// Visit implements Container.
func (l *TransformerDecoderLayer) Visit(path string, v Visitor) {
	walk(path+"/attn", l.Attn, v)
	walk(path+"/ffn", l.FF, v)
	walk(path+"/ln1", l.LN1, v)
	walk(path+"/ln2", l.LN2, v)
	walk(path+"/res1", &l.Res1, v)
	walk(path+"/res2", &l.Res2, v)
}

// Forward runs the layer. Each half's output moves down over its
// input, so the layer leaves one activation behind in a.
func (l *TransformerDecoderLayer) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	m := a.Mark()
	x = a.Keep(m, l.Res1.Apply(a, x, l.Attn.Forward(a, l.LN1.Forward(a, x))))
	return a.Keep(m, l.Res2.Apply(a, x, l.FF.Forward(a, l.LN2.Forward(a, x))))
}

// GNConv is Conv → GroupNorm → SiLU, the diffusion U-Net unit. Callers
// build the two layers with their own weight initialization.
type GNConv struct {
	Conv *Conv2d
	GN   *GroupNorm
}

// Kind implements Module.
func (g *GNConv) Kind() string { return "GNConv" }

// Visit implements Container.
func (g *GNConv) Visit(path string, v Visitor) {
	walk(path+"/conv", g.Conv, v)
	walk(path+"/gn", g.GN, v)
}

// Forward runs the unit, keeping only the activation's output.
func (g *GNConv) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	var act SiLU
	m := a.Mark()
	return a.Keep(m, act.Forward(a, g.GN.Forward(a, g.Conv.Forward(a, x))))
}
