package quant

import (
	"fmt"

	"fp8quant/internal/fp8"
)

// DType selects the numeric format a tensor is quantized to.
type DType int

// Supported quantization targets.
const (
	FP32 DType = iota // no quantization
	E5M2
	E4M3
	E3M4
	INT8
)

// String names the dtype as in the paper's tables.
func (d DType) String() string {
	switch d {
	case FP32:
		return "FP32"
	case E5M2:
		return "E5M2"
	case E4M3:
		return "E4M3"
	case E3M4:
		return "E3M4"
	case INT8:
		return "INT8"
	}
	return fmt.Sprintf("DType(%d)", int(d))
}

// IsFP8 reports whether the dtype is one of the three FP8 formats.
func (d DType) IsFP8() bool { return d == E5M2 || d == E4M3 || d == E3M4 }

// Format returns the fp8.Format for FP8 dtypes.
func (d DType) Format() fp8.Format {
	switch d {
	case E5M2:
		return fp8.E5M2
	case E4M3:
		return fp8.E4M3
	case E3M4:
		return fp8.E3M4
	}
	panic(fmt.Sprintf("quant: %v is not an FP8 dtype", d))
}

// Approach selects when activation scales are computed.
type Approach int

// Quantization approaches. Static computes scales once from
// calibration data (the paper's default). Dynamic recomputes the scale
// per tensor per inference. Direct applies the format's encoding with
// no scaling at all — used by E5M2, whose dynamic range needs no range
// calibration (Figure 2 note).
const (
	Static Approach = iota
	Dynamic
	Direct
)

// String names the approach as used in the paper's tables.
func (a Approach) String() string {
	switch a {
	case Static:
		return "Static"
	case Dynamic:
		return "Dynamic"
	case Direct:
		return "Direct"
	}
	return fmt.Sprintf("Approach(%d)", int(a))
}

// Recipe is a complete quantization configuration: the "standard
// scheme" defaults plus the "extended scheme" switches of Figure 2.
// It is a comparable value: two recipes are == exactly when they
// configure the same quantization.
type Recipe struct {
	// Act is the activation dtype.
	Act DType
	// Wgt is the weight dtype. Mixed FP8 formats (Section 3.2) use
	// Act=E4M3 with Wgt=E3M4.
	Wgt DType
	// Approach selects static/dynamic/direct activation scaling.
	Approach Approach
	// Calib selects the range-calibration algorithm for static
	// quantization (Max is the paper's recommendation).
	Calib CalibMethod
	// CalibBatches is how many dataset batches feed calibration.
	CalibBatches int

	// QuantFirstLast also quantizes the first convolution and last
	// linear layer of CNNs (standard scheme keeps them FP32; Section
	// 4.3.1 studies enabling them).
	QuantFirstLast bool
	// ExtendedOps expands coverage to LayerNorm, BatchNorm, element
	// wise Add/Mul, MatMul/BatchMatMul and Embedding outputs.
	ExtendedOps bool

	// SmoothQuant enables the activation-outlier smoothing transform
	// on Linear layers (enabled for NLP models in the paper's runs).
	SmoothQuant bool
	// SmoothAlpha is the migration strength (paper default 0.5).
	SmoothAlpha float64

	// BNCalib re-estimates BatchNorm statistics after quantization
	// (CV models only; Figure 2's BatchNorm Calibration step).
	BNCalib bool
	// BNCalibBatches is how many batches feed BN re-calibration.
	BNCalibBatches int
}

// Name returns a short table label such as "E4M3 Static".
func (r Recipe) Name() string {
	if r.Act == FP32 {
		return "FP32"
	}
	return fmt.Sprintf("%s %s", r.Act, r.Approach)
}

// RowIndependent reports whether a network quantized under r computes
// each output row from its own input row alone, as the FP32 network
// does. Static and Direct activation scales are fixed before the
// forward and weights are rounded once, so every op stays per sample; a
// Dynamic recipe takes each activation scale over the whole batch
// tensor, so a row's bytes depend on the batch it runs in.
func (r Recipe) RowIndependent() bool { return r.Approach != Dynamic || r.Act == FP32 }

// StandardFP8 returns the paper's standard-scheme recipe for the given
// FP8 format: static per-tensor activation / per-channel weight max
// scaling, first/last conv excluded. E5M2 uses Direct (no range
// calibration).
func StandardFP8(d DType) Recipe {
	r := Recipe{
		Act: d, Wgt: d,
		Approach:     Static,
		Calib:        CalibMax,
		CalibBatches: 4,
	}
	if d == E5M2 {
		r.Approach = Direct
	}
	return r
}

// DynamicFP8 returns the dynamic-quantization variant.
func DynamicFP8(d DType) Recipe {
	r := StandardFP8(d)
	if d != E5M2 {
		r.Approach = Dynamic
	}
	return r
}

// MixedFP8 returns the mixed-format recipe: E4M3 activations (range
// bound) with E3M4 weights (precision bound), the combination Section
// 4.3.2 found best for NLP workloads.
func MixedFP8() Recipe {
	r := StandardFP8(E4M3)
	r.Wgt = E3M4
	return r
}

// StandardINT8 returns the INT8 baseline recipe matching the paper's
// comparison setting: "Static CV | Dynamic NLP".
func StandardINT8(dynamic bool) Recipe {
	a := Static
	if dynamic {
		a = Dynamic
	}
	return Recipe{Act: INT8, Wgt: INT8, Approach: a, Calib: CalibMax, CalibBatches: 4}
}

// WithExtendedOps returns a copy of r with extended operator coverage.
func (r Recipe) WithExtendedOps() Recipe {
	r.ExtendedOps = true
	return r
}

// WithSmoothQuant returns a copy of r with SmoothQuant enabled.
func (r Recipe) WithSmoothQuant(alpha float64) Recipe {
	r.SmoothQuant = true
	r.SmoothAlpha = alpha
	return r
}

// WithBNCalib returns a copy of r with BatchNorm calibration enabled.
func (r Recipe) WithBNCalib(batches int) Recipe {
	r.BNCalib = true
	r.BNCalibBatches = batches
	return r
}

// WithFirstLast returns a copy of r that also quantizes the first and
// last operators of CNNs.
func (r Recipe) WithFirstLast() Recipe {
	r.QuantFirstLast = true
	return r
}
