// Fixture for the unused check: every internal/ function or method
// needs a reference from non-test code other than its own body.
package lib

import "fmt"

// Used is called from another package (cmd/app).
func Used() int { return helper() }

// helper is called by Used.
func helper() int { return 1 }

// TestOnly is called only from lib_test.go.
func TestOnly() int { return 2 } // want unused "function TestOnly"

// Countdown only calls itself.
func Countdown(n int) int { // want unused "function Countdown"
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// Celsius is printed and marshalled by cmd/app.
type Celsius float64

// String satisfies fmt.Stringer: kept though no code calls it directly.
func (c Celsius) String() string { return fmt.Sprintf("%.1fC", float64(c)) }

// MarshalJSON satisfies json.Marshaler: kept likewise.
func (c Celsius) MarshalJSON() ([]byte, error) { return []byte(c.String()), nil }

// Shape is dispatched through by Total.
type Shape interface{ Area() float64 }

// Square implements Shape.
type Square struct{ Side float64 }

// Area satisfies the module-local Shape: kept.
func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter matches no interface method and has no caller.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want unused "method Square.Perimeter"

// Total sums the areas of shapes.
func Total(shapes []Shape) float64 {
	t := 0.0
	for _, s := range shapes {
		t += s.Area()
	}
	return t
}

// Exported is API another module's tests call.
//
//fp8vet:ignore unused the other module's tests call it
func Exported() int { return 3 }

// NoReason carries an ignore without a reason, which suppresses
// nothing and is itself reported.
//
//fp8vet:ignore unused
func NoReason() int { return 4 } // want unused "function NoReason"
