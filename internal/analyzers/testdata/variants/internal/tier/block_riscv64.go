//go:build riscv64

package tier

func blockRows(x []float32) float32 {
	var s float32
	for _, v := range x {
		s += v
	}
	return s
}
