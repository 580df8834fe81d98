package tensor

import (
	"math"
	"slices"
	"testing"
)

// arenaOp is one step of an arena program: carve a tensor, open a scope,
// or close the innermost scope keeping one live tensor or none.
type arenaOp struct {
	kind byte // opNew, opMark, opKeep or opRelease
	n    int  // opNew: element count
	pick int  // opKeep: which live tensor to keep, modulo the live count
}

const (
	opNew byte = iota
	opMark
	opKeep
	opRelease
)

// decodeArenaOps turns fuzz bytes into a program, three bytes a step.
// Sizes cover empty and small tensors, tensors that fill or overrun a
// chunk's remainder, and tensors larger than a whole chunk.
func decodeArenaOps(b []byte) []arenaOp {
	const maxOps = 24
	var ops []arenaOp
	for ; len(b) >= 3 && len(ops) < maxOps; b = b[3:] {
		op := arenaOp{pick: int(b[2])}
		switch b[0] % 5 {
		case 0, 1:
			op.kind = opNew
			d := int(b[2])
			switch b[1] % 4 {
			case 0:
				op.n = d
			case 1:
				op.n = floatChunk/2 + 61*d
			case 2:
				op.n = floatChunk - d
			default:
				op.n = floatChunk + 1 + 257*d
			}
		case 2:
			op.kind = opMark
		case 3:
			op.kind = opKeep
		default:
			op.kind = opRelease
		}
		ops = append(ops, op)
	}
	return ops
}

// arenaShape gives n elements a rank-2 shape when it splits evenly, so
// shapes of both ranks move through Keep.
func arenaShape(n int) (int, int, bool) {
	if n > 0 && n%2 == 0 {
		return 2, n / 2, true
	}
	return n, 0, false
}

// fill writes a pattern unique to (seq, i) into s.
func fill(s []float32, seq int) {
	for i := range s {
		s[i] = math.Float32frombits(uint32(seq)<<22 ^ uint32(i))
	}
}

// runArenaOps runs a program on a, keeping the live set in live and
// the open scopes in marks and nlive (each of capacity len(ops)). check,
// when non-nil, audits the arena after every step, given the mark a
// Release closed; with check nil the run performs no allocation of its
// own.
func runArenaOps(a *Arena, ops []arenaOp, live []*Tensor, marks []Mark, nlive []int, check func(step int, live []*Tensor, keptFrom int, released Mark)) {
	for step, op := range ops {
		keptFrom := -1
		var released Mark
		switch op.kind {
		case opNew:
			var t *Tensor
			if r, c, two := arenaShape(op.n); two {
				t = a.New(r, c)
			} else {
				t = a.New(r)
			}
			live = append(live, t)
		case opMark:
			marks = append(marks, a.Mark())
			nlive = append(nlive, len(live))
		case opKeep:
			if len(marks) == 0 || len(live) == 0 {
				continue
			}
			top := len(marks) - 1
			keptFrom = op.pick % len(live)
			y := a.Keep(marks[top], live[keptFrom])
			live = append(live[:nlive[top]], y)
			marks, nlive = marks[:top], nlive[:top]
		case opRelease:
			if len(marks) == 0 {
				continue
			}
			top := len(marks) - 1
			released = marks[top]
			a.Release(released)
			live = live[:nlive[top]]
			marks, nlive = marks[:top], nlive[:top]
		}
		if check != nil {
			check(step, live, keptFrom, released)
		}
	}
}

// FuzzArenaScopes runs random nested Mark/New/Keep/Release programs
// against a heap model of what every live tensor must hold: kept
// tensors stay byte for byte intact (Keep's destination may overlap its
// source, so a clear-then-copy would corrupt it), a Release drops the
// scope's tensors and puts the arena back at its mark, carved tensors
// come out zeroed and disjoint from every live one, wherever a chunk
// boundary or an oversized tensor puts them, and an identical second
// cycle allocates nothing.
func FuzzArenaScopes(f *testing.F) {
	f.Add([]byte{})
	// A scope whose kept tensor overlaps the keep destination.
	f.Add([]byte{2, 0, 0, 0, 0, 3, 0, 0, 200, 3, 0, 1})
	// Remainder fills and an oversized tensor across nested scopes.
	f.Add([]byte{0, 2, 5, 2, 0, 0, 0, 1, 9, 2, 0, 0, 0, 3, 7, 0, 2, 1, 3, 0, 1, 3, 0, 0})
	f.Add([]byte{0, 3, 255, 2, 0, 0, 0, 3, 255, 3, 0, 0, 0, 0, 3, 3, 0, 1})
	// An op's shape: output, then a scope of scratch released, then
	// more carves over the released space, inside a kept block scope.
	f.Add([]byte{2, 0, 0, 0, 0, 9, 2, 0, 0, 0, 1, 7, 0, 3, 200, 4, 0, 0, 0, 0, 5, 3, 0, 1})
	// A Release across a chunk boundary and an oversized tensor.
	f.Add([]byte{0, 2, 3, 2, 0, 0, 0, 2, 1, 0, 3, 9, 4, 0, 0, 0, 2, 1, 4, 0, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, b []byte) {
		ops := decodeArenaOps(b)
		var a Arena
		// checker returns a check of one cycle over ops on ar.
		checker := func(ar *Arena) func(step int, live []*Tensor, keptFrom int, released Mark) {
			var model [][]float32 // expected contents of each live tensor
			var shapes [][]int
			return func(step int, live []*Tensor, keptFrom int, released Mark) {
				switch op := ops[step]; op.kind {
				case opNew:
					tt := live[len(live)-1]
					for i, v := range tt.Data {
						if v != 0 {
							t.Fatalf("step %d: carved element %d is %g, not zeroed", step, i, v)
						}
					}
					fill(tt.Data, step)
					model = append(model, append([]float32(nil), tt.Data...))
					shapes = append(shapes, append([]int(nil), tt.Shape...))
				case opKeep:
					if keptFrom < 0 {
						return
					}
					want, shape := model[keptFrom], shapes[keptFrom]
					model = append(model[:len(live)-1], want)
					shapes = append(shapes[:len(live)-1], shape)
				case opRelease:
					if at := ar.Mark(); at != released {
						t.Fatalf("step %d: Release left the arena at %v, not its mark %v", step, at, released)
					}
					model, shapes = model[:len(live)], shapes[:len(live)]
				}
				for i, tt := range live {
					if len(tt.Data) != NumElements(tt.Shape) || cap(tt.Data) != len(tt.Data) {
						t.Fatalf("step %d: tensor %d has len %d cap %d for shape %v", step, i, len(tt.Data), cap(tt.Data), tt.Shape)
					}
					if len(tt.Shape) != len(shapes[i]) {
						t.Fatalf("step %d: tensor %d shape %v, want %v", step, i, tt.Shape, shapes[i])
					}
					for j := range tt.Shape {
						if tt.Shape[j] != shapes[i][j] {
							t.Fatalf("step %d: tensor %d shape %v, want %v", step, i, tt.Shape, shapes[i])
						}
					}
					for j, v := range tt.Data {
						if math.Float32bits(v) != math.Float32bits(model[i][j]) {
							t.Fatalf("step %d: tensor %d element %d is %x, want %x", step, i, j, math.Float32bits(v), math.Float32bits(model[i][j]))
						}
					}
				}
			}
		}
		live := make([]*Tensor, 0, len(ops))
		marks := make([]Mark, 0, len(ops))
		nlive := make([]int, 0, len(ops))
		runArenaOps(&a, ops, live, marks, nlive, checker(&a))

		if n := testing.AllocsPerRun(1, func() {
			a.Reset()
			runArenaOps(&a, ops, live[:0], marks[:0], nlive[:0], nil)
		}); n != 0 {
			t.Fatalf("an identical second cycle allocated %.0f times, want 0", n)
		}
		// A cycle that appended nothing leaves Trim nothing to drop.
		if n := testing.AllocsPerRun(1, func() {
			a.Trim()
			runArenaOps(&a, ops, live[:0], marks[:0], nlive[:0], nil)
		}); n != 0 {
			t.Fatalf("an identical cycle after Trim allocated %.0f times, want 0", n)
		}
		// After a cycle that appended, Trim drops chunks; the next
		// cycle carves the same values from what is left.
		var g Arena
		runArenaOps(&g, ops, live[:0], marks[:0], nlive[:0], nil)
		g.Trim()
		for i, c := range g.f.list {
			if len(c) > floatChunk {
				t.Fatalf("chunk %d of %d floats survived Trim", i, len(c))
			}
		}
		runArenaOps(&g, ops, live[:0], marks[:0], nlive[:0], checker(&g))
	})
}

// TestArenaTrim pins what Trim drops: nothing after a cycle that fit;
// after one that appended, the float chunks it did not carve into and
// the oversize ones, keeping the floor-sized chunks it used.
func TestArenaTrim(t *testing.T) {
	var a Arena
	cycle := func(sizes ...int) {
		for _, n := range sizes {
			a.Alloc(n)
		}
	}
	cycle(floatChunk-10, floatChunk-10, floatChunk+5, 100)
	a.Reset()
	cycle(floatChunk - 10)
	a.Trim() // appended nothing since the Reset
	if got := len(a.f.list); got != 4 {
		t.Fatalf("Trim after a cycle that fit left %d chunks, want all 4", got)
	}
	first := &a.f.list[0][0]
	// Outgrow the oversize chunk; the second floor chunk goes unused.
	cycle(floatChunk-10, floatChunk+9)
	a.Trim()
	if got := len(a.f.list); got != 1 || &a.f.list[0][0] != first {
		t.Fatalf("Trim after growth left %d chunks, want only the used floor chunk", got)
	}
	if a.f.cur != 0 || a.f.off != 0 || a.f.grew {
		t.Fatal("Trim did not rewind the arena")
	}
	s := a.Alloc(floatChunk + 9)
	for i, v := range s {
		if v != 0 {
			t.Fatalf("carve after Trim: element %d is %g, not zeroed", i, v)
		}
	}
	var nilArena *Arena
	nilArena.Trim()
}

// TestCellArenaChunkFloor pins the float chunk floors: a zero arena
// appends floatChunk-sized chunks and a cell arena (CellArena)
// masterChunk-sized ones; a carve larger than the floor gets a chunk of
// its own size in both.
func TestCellArenaChunkFloor(t *testing.T) {
	for _, c := range []struct {
		name  string
		a     Arena
		floor int
	}{{"zero", Arena{}, floatChunk}, {"cell", CellArena(), masterChunk}} {
		c.a.Alloc(100)
		c.a.Alloc(c.floor)
		c.a.Keep(c.a.Mark(), FromSlice(make([]float32, 2*c.floor), 2*c.floor))
		var got []int
		for _, s := range c.a.f.list {
			got = append(got, len(s))
		}
		if want := []int{c.floor, c.floor, 2 * c.floor}; !slices.Equal(got, want) {
			t.Errorf("%s arena: chunk lengths %v, want %v", c.name, got, want)
		}
	}
}

// TestArenaKeepOverlapping pins the overlap case: the kept tensor sits
// just past the mark, so its new home overlaps its old one.
func TestArenaKeepOverlapping(t *testing.T) {
	var a Arena
	m := a.Mark()
	head := a.New(3)
	y := a.New(10)
	fill(y.Data, 1)
	want := append([]float32(nil), y.Data...)
	k := a.Keep(m, y)
	if &k.Data[0] != &head.Data[0] {
		t.Fatal("Keep did not move the tensor down to the mark")
	}
	for i := range want {
		if math.Float32bits(k.Data[i]) != math.Float32bits(want[i]) {
			t.Fatalf("element %d lost in the overlapping move", i)
		}
	}
	if len(k.Shape) != 1 || k.Shape[0] != 10 {
		t.Fatalf("kept shape %v, want [10]", k.Shape)
	}
}

// TestArenaNilScopes checks that Mark, Keep and Release are no-ops on
// the heap arena.
func TestArenaNilScopes(t *testing.T) {
	var a *Arena
	y := New(4)
	if a.Keep(a.Mark(), y) != y {
		t.Fatal("nil-arena Keep did not return its argument")
	}
	a.Release(a.Mark())
}
