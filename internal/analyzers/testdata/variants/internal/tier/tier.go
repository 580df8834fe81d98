// Fixture for the loader's build-configuration variants: the two
// riscv64 files are build-tag-excluded on the hosts the tests run on,
// and dispatch_riscv64.go calls blockRows in block_riscv64.go. One
// configuration builds both, so they must be type-checked together;
// checked apart, unused would report blockRows as test-only.
package tier

// Sum runs the configuration's dispatch.
func Sum(x []float32) float32 { return dispatch(x) }
