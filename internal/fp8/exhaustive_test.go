//go:build exhaustive

package fp8

// oracleStride 1 makes TestQuantizeMatchesOracle check all 2^32 float32
// inputs per format: `make exhaustive` (minutes, not tier-1).
const oracleStride = 1
