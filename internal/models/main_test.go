package models_test

import (
	"fmt"
	"os"
	"testing"

	"fp8quant/internal/tensor/kernels"
)

// TestMain honors the FP8_KERNEL pin as the nn package does, so the
// zoo digests of TestPlannedForwardBitIdentical are checked against the
// forced tier's key (make tiers runs it once per variant).
func TestMain(m *testing.M) {
	if v := os.Getenv("FP8_KERNEL"); v != "" {
		if err := kernels.ForceVariant(kernels.Variant(v)); err != nil {
			// A variant the host cannot run is a vacuous pass, as in
			// the kernels and nn packages.
			fmt.Printf("models: %v; skipping forced-variant run\n", err)
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}
