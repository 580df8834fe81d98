// Fixture for the cellpurity check: RunCell bodies and every function
// they reach must not assign package-level variables.
package cellpurityfix

var hits int
var cache = map[string]int{}
var cfg struct{ N int }
var refCache []int

type Cell struct{}

func (Cell) RunCell(key string) int {
	hits++         // want cellpurity "hits"
	cache[key] = 1 // want cellpurity "cache"
	cfg.N = 2      // want cellpurity "cfg"
	viaTwo()
	fillCache()
	return localHelper(key)
}

// localHelper is a direct callee.
func localHelper(key string) int {
	hits += 1 // want cellpurity "hits"
	return len(key)
}

// viaTwo is clean; deepWrite, two calls below RunCell, is audited too.
func viaTwo() { deepWrite() }

func deepWrite() {
	hits = 0 // want cellpurity "via cellpurity.Cell.RunCell → cellpurity.viaTwo → cellpurity.deepWrite"
}

// Ignored: a documented exemption suppresses the finding.
func fillCache() {
	//fp8vet:ignore cellpurity fixture exemption: mutex-free compute-once cache, value independent of call order
	refCache = []int{1}
}

type PureCell struct{}

// Negative: cell-local state is the whole point.
func (PureCell) RunCell() int {
	local := map[string]int{}
	local["a"] = 1
	n := 0
	n++
	return n + len(local)
}
