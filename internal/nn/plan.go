package nn

import "fp8quant/internal/tensor"

// Plan is an execution plan: two arenas (tensor.Arena) with different
// lifetimes.
//
//   - The forward arena lives for one forward. Begin rewinds it and
//     hands it to the forward, which passes it to each module where an
//     unplanned caller passes nil.
//   - The cell arena (Cell) lives for one quantization cycle of the
//     network the plan serves: quant.Quantize rewinds it and carves
//     each weight's FP32 master from it, and Handle.Release copies the
//     masters back. Begin never touches it, so masters survive every
//     forward of the cell. Its chunks have a smaller floor than the
//     forward arena's (tensor.CellArena), since a CNN's masters fill
//     a fraction of a forward chunk.
//
// Both arenas keep their chunks across cycles and models, so a warm
// plan's cell copies its masters, and runs its forwards, in memory the
// plan already holds.
//
// A forward carves every intermediate — tensors, headers, shape slices,
// im2col patches and packed weight panels — out of chunks the forward
// arena already holds, and a repeated forward performs zero heap
// allocations while running kernels in exactly the same float operation
// order as the unplanned path, so planned and unplanned outputs are
// byte-identical.
//
// There is no recording cycle: the first forward over a shape appends
// the chunks its peak live set needs, later ones reuse them. Scopes
// keep that peak to the live bytes, not the sum of a forward's
// intermediates, by two rules. An op releases its scratch: Conv2d,
// Linear, BatchMatMulOp, AddOp and MulOp carve their output
// first and release their quantized input copies, im2col patches and
// packed panels (Arena.Release) before returning. A block that builds
// one tensor from many releases its children: a Sequential moves each
// child's output down over its input (Arena.Keep); attention, the
// feed-forward blocks, the transformer layers, SEBlock and GNConv (and
// the zoo's conv-BN-activation unit) keep only their output; and a
// DenseNet or Inception block keeps each running concatenation at one
// block mark.
//
// A Plan is not safe for concurrent use; run one plan per worker.
// Outputs of a planned forward remain valid only until the next Begin —
// Clone them to retain. Shapes may vary between calls: a forward over a
// larger shape appends chunks once, and chunks persist across models,
// so one plan can serve every network in turn.
type Plan struct {
	m    Module
	a    tensor.Arena
	cell tensor.Arena
}

// NewPlan returns a plan for m (nil when the plan only lends its arenas
// through Begin and Cell); its arenas hold no chunks yet.
func NewPlan(m Module) *Plan { return &Plan{m: m, cell: tensor.CellArena()} }

// Bind points the plan at a different module (typically the same
// architecture with different weights). Binding nil detaches the
// module so an idle plan does not keep a whole network reachable.
//
//fp8vet:ignore unused bench/cellpath.go calls it
func (p *Plan) Bind(m Module) { p.m = m }

// Begin starts a planned forward: it rewinds the plan's forward arena
// and returns it. Every tensor of the previous forward becomes invalid. A
// nil plan returns a nil arena, the heap.
func (p *Plan) Begin() *tensor.Arena {
	if p == nil {
		return nil
	}
	p.a.Reset()
	return &p.a
}

// Trim rewinds the forward arena like Begin, first trimming it
// (tensor.Arena.Trim) if the forward since the last Begin appended a
// chunk; the cell arena keeps its own. A caller whose forwards keep
// growing (a generator that adds a token per step) trims before each
// larger one: the plan then holds about one forward's chunks, not those
// of every smaller forward before it, and a forward the chunks held
// keeps them all.
func (p *Plan) Trim() { p.a.Trim() }

// Cell returns the plan's cell arena, which Begin never rewinds: its
// owner (quant.Quantize) rewinds it at the start of a quantization
// cycle. A nil plan returns a nil arena, the heap.
func (p *Plan) Cell() *tensor.Arena {
	if p == nil {
		return nil
	}
	return &p.cell
}

// Forward runs the planned module over x. The input must not itself be
// arena memory from this plan's previous call.
func (p *Plan) Forward(x *tensor.Tensor) *tensor.Tensor {
	return p.m.Forward(p.Begin(), x)
}
