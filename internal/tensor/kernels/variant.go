package kernels

import "fmt"

// Variant names one microkernel implementation tier. The dispatcher
// picks the best tier the host supports at process start; tests force
// specific tiers to pin every variant against its scalar oracle on one
// machine.
//
// Bit-identity is *per-variant*: "generic" and "sse" perform the
// two-rounding `acc += float32(v*b)` sequence of the naive loops, while
// "avx2" uses fused multiply-adds that round once per update — its
// results legitimately differ from the SSE tier in the last bits. Any
// artifact derived from kernel output (store cells, reports) therefore
// records the producing variant, and the store refuses to mix
// variants silently.
type Variant string

const (
	// VariantGeneric is the portable pure-Go 4×8 tile (every GOARCH).
	VariantGeneric Variant = "generic"
	// VariantSSE is the amd64 SSE 4×8 assembly tile (no FMA; exactly
	// the generic operation sequence).
	VariantSSE Variant = "sse"
	// VariantAVX2 is the amd64 AVX2+FMA 8×8 assembly tile (one rounding
	// per multiply-add; pinned to the fused scalar oracle).
	VariantAVX2 Variant = "avx2"
)

// kernel is one variant's dispatch metadata: the tile height mr and
// whether its multiply-adds round once (fused). The block loops
// themselves are selected by variant in blockRowsOf — a direct switch,
// not function-pointer fields, so the stack accumulator tiles never
// escape through an indirect call (planned forwards stay zero-alloc).
type kernel struct {
	variant Variant
	mr      int
	fused   bool
}

// genericKernel is the portable tier, available on every GOARCH.
var genericKernel = &kernel{variant: VariantGeneric, mr: 4}

// available lists the host's kernels best-first; active is the one the
// GEMM entry points use; twoRounding is the best non-fused tier, the
// fallback for Opt.NoFused callers (convolution). All are fixed at init
// and only active changes, through ForceVariant (which must not race
// with running GEMMs).
var (
	available   []*kernel
	active      *kernel
	twoRounding *kernel
)

func init() {
	available = append(archKernels(), genericKernel)
	active = available[0]
	for _, k := range available {
		if !k.fused {
			twoRounding = k
			break
		}
	}
}

// Active returns the variant the GEMM entry points currently use.
func Active() Variant { return active.variant }

// RefMadd returns the scalar multiply-accumulate step a variant's
// outputs are pinned to: the exactly-rounded fused multiply-add for the
// avx2 tier, the two-rounding product-then-add for every other tier.
// Differential tests outside this package build their naive oracle
// loops on RefMadd(Active()) so they pin to whichever variant the host
// dispatched.
//
//fp8vet:ignore unused nn's differential tests build their scalar matmul oracle on it
func RefMadd(v Variant) func(acc, x, b float32) float32 {
	if v == VariantAVX2 {
		return func(acc, x, b float32) float32 { return fmaRef(x, b, acc) }
	}
	return func(acc, x, b float32) float32 { return acc + float32(x*b) }
}

// Available returns the variants the host supports, best-first. The
// generic tier is always present and always last.
func Available() []Variant {
	out := make([]Variant, len(available))
	for i, k := range available {
		out[i] = k.variant
	}
	return out
}

// ForceVariant pins the GEMM entry points to one variant, overriding
// the dispatcher's choice; it errors if the host does not support v.
// It is meant for process start (test mains, the FP8_KERNEL escape
// hatch in cmd wiring) — calling it concurrently with running GEMMs is
// a data race. The harness keeps a process's BatchNorm warm-ups, FP32
// references and cell results per model and cell, not per tier, so a
// caller switching tiers after cells have run calls harness.ClearMemo.
func ForceVariant(v Variant) error {
	for _, k := range available {
		if k.variant == v {
			active = k
			return nil
		}
	}
	return fmt.Errorf("kernels: variant %q not available on this host (have %v)", v, Available())
}
