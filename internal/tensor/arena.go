package tensor

// Arena is a bump allocator for forward-pass intermediates. A compiled
// execution plan owns one (or two, ping-ponged) per worker: the first
// forward over a given input shape records how much memory each cycle
// needs, Reset grows the backing slabs to the high-water mark, and
// every later cycle carves the same tensors out of the same storage —
// zero heap allocations on the steady path.
//
// A nil *Arena is valid and falls back to ordinary heap allocation
// (tensor.New semantics). Every nn forward takes an arena, and
// unplanned callers pass nil, so one forward body serves both and stays
// byte-identical whether or not a plan is installed: Arena.New zeroes
// every carved region, exactly like make, and hands out the same shapes
// to the same kernels.
//
// Arenas are not safe for concurrent use; a plan (and its arenas)
// belongs to one worker at a time. Tensors carved from an arena are
// valid until the arena's next Reset — callers that retain an output
// past the next forward must Clone it first.
type Arena struct {
	slab []float32 // float storage, carved front to back
	off  int
	hdrs []Tensor // Tensor headers, so &Tensor{...} does not escape
	hoff int
	ints []int // shape storage
	ioff int

	// High-water demand of the current cycle; Reset sizes the slabs
	// from these, so the first (recording) cycle allocates through the
	// heap fallback and every following cycle hits the slab.
	needF, needH, needI int
}

// Reset ends the current cycle: it grows the backing slabs to the
// cycle's high-water demand and rewinds the bump offsets. Every tensor
// carved since the previous Reset becomes invalid. Safe on nil.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.ResetFloats()
	if a.needH > len(a.hdrs) {
		a.hdrs = make([]Tensor, a.needH)
	}
	if a.needI > len(a.ints) {
		a.ints = make([]int, a.needI)
	}
	a.hoff, a.ioff = 0, 0
	a.needH, a.needI = 0, 0
}

// ResetFloats rewinds only the float slab, leaving headers and shape
// storage live. A plan ping-ponging two arenas across a module chain
// resets the floats of the side about to be overwritten each step, but
// headers only once per forward (a view module's header can carve from
// one side while its data aliases the other, so headers must outlive
// the per-step float recycling). Safe on nil.
func (a *Arena) ResetFloats() {
	if a == nil {
		return
	}
	if a.needF > len(a.slab) {
		a.slab = make([]float32, a.needF)
	}
	a.off = 0
	a.needF = 0
}

// New carves a zeroed tensor of the given shape. On a nil arena it is
// exactly tensor.New.
func (a *Arena) New(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	t := a.header()
	t.Shape = a.shapeOf(shape)
	t.Data = a.floats(NumElements(shape))
	return t
}

// View wraps data (not copied) in a carved header, the arena analogue
// of FromSlice; reshaping views stay allocation-free under a plan.
func (a *Arena) View(data []float32, shape ...int) *Tensor {
	if a == nil {
		return FromSlice(data, shape...)
	}
	if len(data) != NumElements(shape) {
		// The copy keeps shape itself from escaping: formatting the
		// variadic slice here would heap-allocate it on every call.
		panicShapeMismatch(len(data), append([]int(nil), shape...))
	}
	t := a.header()
	t.Shape = a.shapeOf(shape)
	t.Data = data
	return t
}

// Alloc carves a zeroed raw float slice (im2col patches, packed weight
// panels). On a nil arena it is make([]float32, n).
func (a *Arena) Alloc(n int) []float32 {
	if a == nil {
		return make([]float32, n)
	}
	return a.floats(n)
}

// Floats returns the float32 capacity of the backing slab — the
// high-water footprint after at least one recorded cycle.
func (a *Arena) Floats() int {
	if a == nil {
		return 0
	}
	return len(a.slab)
}

// Owns reports whether data's first element lives inside the arena's
// current slab. Used by aliasing tests and the plan's ping-pong logic.
func (a *Arena) Owns(data []float32) bool {
	if a == nil || len(data) == 0 || len(a.slab) == 0 {
		return false
	}
	return &data[0] == &a.slab[0] || (len(a.slab) > 1 && sliceWithin(data, a.slab))
}

func sliceWithin(inner, outer []float32) bool {
	for i := range outer {
		if &outer[i] == &inner[0] {
			return true
		}
	}
	return false
}

// floats carves n zeroed floats, falling back to the heap when the
// slab is exhausted (the recording cycle, or a shape larger than any
// seen before). Zeroing keeps carved memory byte-identical to make:
// some forward paths accumulate into their output.
func (a *Arena) floats(n int) []float32 {
	a.needF += n
	if a.off+n <= len(a.slab) {
		s := a.slab[a.off : a.off+n : a.off+n]
		a.off += n
		clear(s)
		return s
	}
	return make([]float32, n)
}

func (a *Arena) header() *Tensor {
	a.needH++
	if a.hoff < len(a.hdrs) {
		t := &a.hdrs[a.hoff]
		a.hoff++
		return t
	}
	return new(Tensor)
}

func (a *Arena) shapeOf(shape []int) []int {
	a.needI += len(shape)
	if a.ioff+len(shape) <= len(a.ints) {
		s := a.ints[a.ioff : a.ioff+len(shape) : a.ioff+len(shape)]
		a.ioff += len(shape)
		copy(s, shape)
		return s
	}
	return append([]int(nil), shape...)
}
