//go:build !exhaustive

package fp8

// oracleStride samples every 4097th float32 bit pattern (about 1M per
// format) in TestQuantizeMatchesOracle.
const oracleStride = 4097
