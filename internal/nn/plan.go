package nn

import "fp8quant/internal/tensor"

// Plan is a compiled execution plan for one module tree: a pair of
// ping-ponged arenas sized by running the module once over each input
// shape (the recording cycle sizes the slabs through the arenas'
// high-water tracking; Reset then pins them). Plan.Forward(x) is the
// module's Forward with a plan arena where an unplanned caller passes
// nil. On the steady path it carves every intermediate — tensors,
// headers, shape slices, im2col patches and packed weight panels — out
// of preallocated slabs, performing zero heap allocations while running
// kernels in exactly the same float operation order as the unplanned
// path, so planned and unplanned outputs are byte-identical.
//
// Ping-pong: for a top-level Sequential the plan alternates two arenas
// between consecutive children. Child k writes into one arena while its
// input (child k-1's output) lives in the other; resetting the side
// about to be written reclaims everything that is at least two steps
// dead. View modules (Flatten) alias their input's storage, which the
// plan detects by data-pointer identity so an aliased output keeps its
// arena alive.
//
// A Plan is not safe for concurrent use; run one plan per worker.
// Outputs of Plan.Forward remain valid only until the next Forward —
// Clone them to retain. Shapes may vary between calls: a new shape
// re-records (allocating once), and slabs grow monotonically to the
// largest shape seen.
type Plan struct {
	m           Module
	front, back tensor.Arena
}

// NewPlan wraps m in an (un-warmed) plan; the first Forward over each
// input shape records arena demand and allocates, later ones do not.
func NewPlan(m Module) *Plan { return &Plan{m: m} }

// Compile builds a plan for m and warms it for the given input shape
// by running one recording forward over a zero input.
func Compile(m Module, inShape ...int) *Plan {
	p := NewPlan(m)
	p.Forward(tensor.New(inShape...))
	return p
}

// Bind points the plan at a different module (typically the same
// architecture with different weights — e.g. a pooled plan reused
// across sweep cells, where the arenas are already sized right).
// Binding nil detaches the module so a pooled plan does not keep a
// whole network reachable.
func (p *Plan) Bind(m Module) { p.m = m }

// Forward runs the planned module over x. The input must not itself be
// arena memory from this plan's previous call.
func (p *Plan) Forward(x *tensor.Tensor) *tensor.Tensor {
	if s, ok := p.m.(*Sequential); ok {
		return p.forwardSeq(s, x)
	}
	p.front.Reset()
	p.back.Reset()
	return p.m.Forward(&p.front, x)
}

// forwardSeq ping-pongs the two arenas across the top-level chain.
// Invariant: cur either lives on the heap (the original input) or in
// the arena identified by curFront; the side about to execute is the
// one cur does NOT live in, and resetting it only invalidates tensors
// that are at least two steps dead.
func (p *Plan) forwardSeq(s *Sequential, x *tensor.Tensor) *tensor.Tensor {
	p.front.Reset()
	p.back.Reset()
	cur := x
	curHeap := true
	curFront := false
	for _, m := range s.Modules {
		side, useFront := &p.front, true
		if !curHeap && curFront {
			side, useFront = &p.back, false
		}
		// Per-step: recycle only the side's float slab. Headers carved
		// earlier this forward (e.g. a view header whose data lives in
		// the other side) stay valid until the next Forward.
		side.ResetFloats()
		out := m.Forward(side, cur)
		// View modules return a tensor aliasing cur's storage; the
		// output then stays attributed to cur's side so the next step
		// does not reset the slab under it.
		if !sameData(out, cur) {
			curHeap, curFront = false, useFront
		}
		cur = out
	}
	return cur
}

// sameData reports whether two tensors share a backing array (full
// views: Flatten/Reshape share from element 0).
func sameData(a, b *tensor.Tensor) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}
