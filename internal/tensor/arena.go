package tensor

// Arena is a scoped bump allocator for forward-pass intermediates. A
// compiled execution plan owns one per worker and rewinds it at the
// start of every forward; the forward then carves each tensor, header,
// shape slice, im2col patch and packed weight panel out of storage the
// arena already holds, so a repeated forward performs zero heap
// allocations.
//
// Storage is a list of chunks per kind (floats, Tensor headers, shape
// ints), appended on demand and never moved or freed: a carve that does
// not fit the current chunk's remainder moves on to the next chunk that
// holds it, or appends one of max(n, floor) elements. The first forward
// over a shape therefore allocates only the chunks its peak live set
// needs, and every later identical forward walks the same chunks.
//
// Scopes keep that peak small, by two rules. An op carves its output
// first and releases its scratch (quantized input copies, im2col
// patches, packed panels) before returning:
//
//	y := a.New(...)
//	m := a.Mark()
//	... carve scratch, compute into y ...
//	a.Release(m)
//
// A block that builds one tensor from many children brackets its body:
//
//	m := a.Mark()
//	... run children, compute y ...
//	return a.Keep(m, y)
//
// Keep moves y down to m with one exact copy and releases everything
// carved after m, so a transformer layer, a dense block or a
// Sequential child leaves only its output behind.
//
// A nil *Arena is valid and falls back to ordinary heap allocation
// (tensor.New semantics; Mark, Keep and Release do nothing). Every nn forward
// takes an arena, and unplanned callers pass nil, so one forward body
// serves both and stays byte-identical whether or not a plan is
// installed: New zeroes every carved region, exactly like make, Keep
// copies bits verbatim, and the same shapes reach the same kernels.
//
// Arenas are not safe for concurrent use; a plan (and its arena)
// belongs to one worker at a time. Tensors carved from an arena are
// valid until the arena's next Reset, or until a Keep to an earlier
// mark releases them — callers that retain an output past the next
// forward must Clone it first.
type Arena struct {
	f chunks[float32]
	h chunks[Tensor] // headers, so &Tensor{...} does not escape
	i chunks[int]
	// floor is the float chunk floor; 0 means floatChunk.
	floor int
}

// Chunk floors per storage kind. floatChunk (64Ki floats, 256 KiB)
// holds every intermediate of a zoo token model, so those forwards run
// over a handful of equal chunks; larger CNN activations get a chunk of
// their own size. masterChunk (16Ki floats, 64 KiB) is a cell arena's
// float floor (CellArena): a CNN's weight masters total 15-22 KiB,
// so a 256 KiB chunk would hold mostly slack, while a token model's
// larger weights still share chunks across models. Exact-size chunks
// (no floor) would keep one chunk per weight size across models.
const (
	floatChunk  = 64 << 10
	masterChunk = 16 << 10
	headerChunk = 256
	intChunk    = 1024
)

// CellArena returns an empty arena for a quantization cycle's weight
// masters (nn.Plan's cell arena): its float chunks have a floor of
// masterChunk, not floatChunk. It is returned by value for its owner
// to embed; like any arena, it must not be copied once carved from.
func CellArena() Arena { return Arena{floor: masterChunk} }

// floatFloor is the arena's float chunk floor.
func (a *Arena) floatFloor() int {
	if a.floor == 0 {
		return floatChunk
	}
	return a.floor
}

// chunks is one kind's storage: carving is a stack over the
// concatenation of list, at chunk cur, element off. used marks the
// chunks carved into since the last Reset, and grew whether a chunk
// was appended since then.
type chunks[T any] struct {
	list     [][]T
	cur, off int
	used     []bool
	grew     bool
}

// pos is a position in a chunks stack.
type pos struct{ cur, off int }

func (c *chunks[T]) at() pos { return pos{c.cur, c.off} }

func (c *chunks[T]) rewind(p pos) { c.cur, c.off = p.cur, p.off }

// carve returns the next n elements, not cleared. Chunks whose
// remainder is too small are skipped (and reused by the next forward);
// when none is left, a chunk of max(n, floor) elements is appended.
func (c *chunks[T]) carve(n, floor int) []T {
	for ; c.cur < len(c.list); c.cur, c.off = c.cur+1, 0 {
		if s := c.list[c.cur]; c.off+n <= len(s) {
			c.off += n
			c.used[c.cur] = true
			return s[c.off-n : c.off : c.off]
		}
	}
	c.list = append(c.list, make([]T, max(n, floor)))
	c.used = append(c.used, true)
	c.grew = true
	c.off = n
	return c.list[c.cur][:n:n]
}

// restart rewinds to the start of a new cycle.
func (c *chunks[T]) restart() {
	c.rewind(pos{})
	clear(c.used)
	c.grew = false
}

// trim drops, if a chunk was appended since the last restart, every
// chunk not carved into since then and every chunk larger than floor.
func (c *chunks[T]) trim(floor int) {
	if !c.grew {
		return
	}
	keep := 0
	for i, s := range c.list {
		if len(s) <= floor && c.used[i] {
			c.list[keep] = s
			keep++
		}
	}
	clear(c.list[keep:])
	c.list, c.used = c.list[:keep], c.used[:keep]
}

// Mark is a position in an arena, taken by Mark and released to by
// Keep or Release.
type Mark struct{ f, h, i pos }

// Reset starts a new cycle: it rewinds every chunk stack to its start,
// keeping the chunks. Every tensor carved since the previous Reset
// becomes invalid. Safe on nil.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.f.restart()
	a.h.restart()
	a.i.restart()
}

// Trim starts a new cycle like Reset. First, if the cycle since the
// previous Reset appended a float chunk, it drops the float chunks
// that cycle did not carve into and every oversize one (larger than
// the chunk floor, appended for one carve no chunk could hold). An
// owner whose cycles keep growing (a generator that adds a token per
// step) trims before each larger cycle: a cycle that fit keeps every
// chunk, and after one that outgrew the arena the next keeps only the
// floor-sized chunks in use and appends oversize chunks for its own
// shapes, instead of holding every earlier cycle's beside them. Safe
// on nil.
func (a *Arena) Trim() {
	if a == nil {
		return
	}
	a.f.trim(a.floatFloor())
	a.Reset()
}

// Mark returns the arena's current position, opening a scope. Safe on
// nil.
func (a *Arena) Mark() Mark {
	if a == nil {
		return Mark{}
	}
	return Mark{a.f.at(), a.h.at(), a.i.at()}
}

// Keep closes the scope opened at m: it releases everything carved
// since m and returns y moved down to m (a fresh header, shape and data
// carved at m, the data one exact copy of y's). y may live anywhere:
// inside the scope, before it, or on the heap. On a nil arena Keep
// returns y unchanged.
func (a *Arena) Keep(m Mark, y *Tensor) *Tensor {
	if a == nil {
		return y
	}
	shape, data := y.Shape, y.Data
	a.Release(m)
	t := a.header()
	// The destination may overlap y's own storage, which the rewind
	// just released: copy moves like memmove, and nothing is cleared
	// first, so the bits arrive intact.
	t.Data = a.f.carve(len(data), a.floatFloor())
	copy(t.Data, data)
	t.Shape = a.shapeOf(shape)
	return t
}

// Release closes the scope opened at m keeping nothing: everything
// carved since m becomes invalid and the next carve starts at m. Safe
// on nil.
func (a *Arena) Release(m Mark) {
	if a == nil {
		return
	}
	a.f.rewind(m.f)
	a.h.rewind(m.h)
	a.i.rewind(m.i)
}

// New carves a zeroed tensor of the given shape. On a nil arena it is
// exactly tensor.New.
func (a *Arena) New(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	t := a.header()
	t.Shape = a.shapeOf(shape)
	t.Data = a.Alloc(NumElements(shape))
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
// panels). On a nil arena it is make([]float32, n). Zeroing keeps
// carved memory byte-identical to make: some forward paths accumulate
// into their output.
func (a *Arena) Alloc(n int) []float32 {
	if a == nil {
		return make([]float32, n)
	}
	s := a.f.carve(n, a.floatFloor())
	clear(s)
	return s
}

func (a *Arena) header() *Tensor { return &a.h.carve(1, headerChunk)[0] }

// shapeOf carves a copy of shape; shape may overlap the carved region
// (Keep), which copy handles.
func (a *Arena) shapeOf(shape []int) []int {
	s := a.i.carve(len(shape), intChunk)
	copy(s, shape)
	return s
}
