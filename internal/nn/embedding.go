package nn

import (
	"fmt"

	"fp8quant/internal/tensor"
)

// Embedding is a token-id → vector lookup table. Under the extended
// scheme the weight table itself is quantized (memory-bound op).
type Embedding struct {
	Vocab, Dim int
	// W has shape [Vocab, Dim].
	W *tensor.Tensor
	// QS.Output quantizes the gathered rows.
	QS QState
}

// NewEmbedding allocates a zero embedding table.
func NewEmbedding(vocab, dim int) *Embedding {
	return &Embedding{Vocab: vocab, Dim: dim, W: tensor.New(vocab, dim)}
}

// Kind implements Module.
func (e *Embedding) Kind() string { return "Embedding" }

// Q implements Quantizable.
func (e *Embedding) Q() *QState { return &e.QS }

// WeightTensor implements Parametric.
func (e *Embedding) WeightTensor() *tensor.Tensor { return e.W }

// OutChannelDim implements Parametric: rows index vocabulary entries.
func (e *Embedding) OutChannelDim() int { return 0 }

// Forward is unsupported; embeddings consume token IDs. Use Lookup.
func (e *Embedding) Forward(*tensor.Arena, *tensor.Tensor) *tensor.Tensor {
	panic("nn: Embedding consumes token IDs; call Lookup(ids)")
}

// Lookup gathers rows for a batch of token sequences, returning
// [B, T, Dim].
func (e *Embedding) Lookup(ids [][]int) *tensor.Tensor {
	if len(ids) == 0 {
		panic("nn: Embedding.Lookup with empty batch")
	}
	b, t := len(ids), len(ids[0])
	y := tensor.New(b, t, e.Dim)
	for bi, seq := range ids {
		if len(seq) != t {
			panic("nn: ragged token batch")
		}
		for ti, id := range seq {
			if id < 0 || id >= e.Vocab {
				panic(fmt.Sprintf("nn: token id %d out of vocab %d", id, e.Vocab))
			}
			copy(y.Data[(bi*t+ti)*e.Dim:], e.W.Data[id*e.Dim:(id+1)*e.Dim])
		}
	}
	return e.QS.applyOut(y)
}

// EmbeddingBag sums (or averages) embedding rows per bag — the DLRM
// sparse-feature op (EmbBag in Figure 9).
type EmbeddingBag struct {
	Vocab, Dim int
	W          *tensor.Tensor
	// Mean averages instead of summing.
	Mean bool
	QS   QState
}

// NewEmbeddingBag allocates a zero bag-embedding table.
func NewEmbeddingBag(vocab, dim int) *EmbeddingBag {
	return &EmbeddingBag{Vocab: vocab, Dim: dim, W: tensor.New(vocab, dim)}
}

// Kind implements Module.
func (e *EmbeddingBag) Kind() string { return "EmbeddingBag" }

// Q implements Quantizable.
func (e *EmbeddingBag) Q() *QState { return &e.QS }

// WeightTensor implements Parametric.
func (e *EmbeddingBag) WeightTensor() *tensor.Tensor { return e.W }

// OutChannelDim implements Parametric.
func (e *EmbeddingBag) OutChannelDim() int { return 0 }

// Forward is unsupported; use LookupBags.
func (e *EmbeddingBag) Forward(*tensor.Arena, *tensor.Tensor) *tensor.Tensor {
	panic("nn: EmbeddingBag consumes token bags; call LookupBags(bags)")
}

// LookupBags reduces each bag of ids to a single vector, returning
// [B, Dim].
func (e *EmbeddingBag) LookupBags(bags [][]int) *tensor.Tensor {
	y := tensor.New(len(bags), e.Dim)
	for bi, bag := range bags {
		dst := y.Data[bi*e.Dim : (bi+1)*e.Dim]
		for _, id := range bag {
			if id < 0 || id >= e.Vocab {
				panic(fmt.Sprintf("nn: token id %d out of vocab %d", id, e.Vocab))
			}
			row := e.W.Data[id*e.Dim : (id+1)*e.Dim]
			for i, v := range row {
				dst[i] += v
			}
		}
		if e.Mean && len(bag) > 0 {
			inv := 1 / float32(len(bag))
			for i := range dst {
				dst[i] *= inv
			}
		}
	}
	return e.QS.applyOut(y)
}

// PositionalEmbedding adds a learned position table to [B,T,D] input.
type PositionalEmbedding struct {
	MaxLen, Dim int
	W           *tensor.Tensor // [MaxLen, Dim]
}

// NewPositionalEmbedding allocates a zero position table.
func NewPositionalEmbedding(maxLen, dim int) *PositionalEmbedding {
	return &PositionalEmbedding{MaxLen: maxLen, Dim: dim, W: tensor.New(maxLen, dim)}
}

// Kind implements Module.
func (p *PositionalEmbedding) Kind() string { return "PositionalEmbedding" }

// Forward adds position rows to x [B,T,D]. Positions beyond MaxLen
// clamp to the final table row, so autoregressive generation can run
// past the training context (the graceful long-context behaviour of
// ALiBi-style models).
func (p *PositionalEmbedding) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 || x.Shape[2] != p.Dim {
		panic(fmt.Sprintf("nn: PositionalEmbedding expects [B,T,%d], got %v", p.Dim, x.Shape))
	}
	b, t := x.Shape[0], x.Shape[1]
	y := cloneInto(a, x)
	for bi := 0; bi < b; bi++ {
		for ti := 0; ti < t; ti++ {
			pos := ti
			if pos >= p.MaxLen {
				pos = p.MaxLen - 1
			}
			dst := y.Data[(bi*t+ti)*p.Dim : (bi*t+ti+1)*p.Dim]
			row := p.W.Data[pos*p.Dim : (pos+1)*p.Dim]
			for i, v := range row {
				dst[i] += v
			}
		}
	}
	return y
}
