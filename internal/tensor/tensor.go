// Package tensor provides a minimal dense float32 tensor, a deterministic
// random number generator, and the statistics primitives (absmax,
// percentiles, moments, MSE, KL divergence) that range calibration and
// the paper's analysis figures are built on.
//
// Its results are byte-identical on every architecture: a product that
// feeds an add is rounded explicitly (float64(x*y)), which the Go spec
// says prevents fusing it into a multiply-add; make fma-audit checks
// the arm64 listing of every tensor symbol.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	// Shape holds the dimension sizes, outermost first.
	Shape []int
	// Data is the row-major backing storage, len == product(Shape).
	Data []float32
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, NumElements(shape))}
}

// FromSlice wraps data in a tensor of the given shape. The slice is not
// copied; it must have exactly product(shape) elements.
func FromSlice(data []float32, shape ...int) *Tensor {
	if len(data) != NumElements(shape) {
		// Formatting shape here would make the variadic argument
		// heap-escape at every call site; the copy confines that to
		// the panic path.
		panicShapeMismatch(len(data), append([]int(nil), shape...))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

func panicShapeMismatch(n int, shape []int) {
	panic(fmt.Sprintf("tensor: data length %d does not match shape %v", n, shape))
}

// NumElements returns the product of the dimension sizes.
func NumElements(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panicIndexRank(len(idx), append([]int(nil), t.Shape...))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			// As in FromSlice: formatting idx itself would heap-escape the
			// variadic index at every At/Set call site.
			panicIndexBounds(append([]int(nil), idx...), append([]int(nil), t.Shape...))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

func panicIndexRank(n int, shape []int) {
	panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", n, shape))
}

func panicIndexBounds(idx, shape []int) {
	panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, shape))
}

// Apply replaces every element x with f(x).
func (t *Tensor) Apply(f func(float32) float32) {
	for i, v := range t.Data {
		t.Data[i] = f(v)
	}
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// String returns a short description (shape plus a few leading values).
func (t *Tensor) String() string {
	n := t.Len()
	if n > 4 {
		n = 4
	}
	return fmt.Sprintf("Tensor%v%v…", t.Shape, t.Data[:n])
}

// AbsMax returns the maximum absolute value, ignoring NaNs.
func (t *Tensor) AbsMax() float64 {
	m := 0.0
	for _, v := range t.Data {
		a := math.Abs(float64(v))
		if a > m {
			m = a
		}
	}
	return m
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	if t.Len() == 0 {
		return 0
	}
	s := 0.0
	for _, v := range t.Data {
		s += float64(v)
	}
	return s / float64(t.Len())
}

// Variance returns the population variance.
func (t *Tensor) Variance() float64 {
	if t.Len() == 0 {
		return 0
	}
	mu := t.Mean()
	s := 0.0
	for _, v := range t.Data {
		d := float64(v) - mu
		s += float64(d * d)
	}
	return s / float64(t.Len())
}

// Std returns the population standard deviation.
func (t *Tensor) Std() float64 { return math.Sqrt(t.Variance()) }

// Kurtosis returns the excess kurtosis; heavy-tailed (outlier-rich)
// tensors have large positive kurtosis, which is how Figure 3
// distinguishes range-bound from precision-bound tensors.
func (t *Tensor) Kurtosis() float64 {
	if t.Len() == 0 {
		return 0
	}
	mu := t.Mean()
	var m2, m4 float64
	for _, v := range t.Data {
		d := float64(v) - mu
		m2 += float64(d * d)
		m4 += float64(d * d * d * d)
	}
	n := float64(t.Len())
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0
	}
	return m4/(m2*m2) - 3
}
