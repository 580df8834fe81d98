package evalx

import (
	"fmt"
	"os"
	"testing"

	"fp8quant/internal/tensor/kernels"
)

// TestMain honors the FP8_KERNEL pin like the kernels and nn packages,
// so make tiers runs the kept-path identity tests under each GEMM tier.
func TestMain(m *testing.M) {
	if v := os.Getenv("FP8_KERNEL"); v != "" {
		if err := kernels.ForceVariant(kernels.Variant(v)); err != nil {
			// A variant the host cannot run is a vacuous pass, as in
			// the kernels package.
			fmt.Printf("evalx: %v; skipping forced-variant run\n", err)
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}
