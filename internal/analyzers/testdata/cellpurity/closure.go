package cellpurityfix

// A grid whose cell runner is a closure a helper returns: the literal
// is a cell root as a declared cell function would be.

var gridHits = map[string]int{}
var lastCell int

// registerGrid mimics the harness registration idiom: the 4th argument
// is a cell root.
func registerGrid(id, title string, spec func() int, cell func(int) int, render func()) {}

// closureGrid returns its spec and cell runner, as the harness's
// recipeGrid does.
func closureGrid(id string) (func() int, func(int) int) {
	spec := func() int { return len(id) }
	cell := func(i int) int {
		gridHits[id] = i // want cellpurity "gridHits"
		return noteCell(i)
	}
	return spec, cell
}

// noteCell is reached from the closure root: the chain names it.
func noteCell(i int) int {
	lastCell = i // want cellpurity "via cellpurity.closureGrid.func2 → cellpurity.noteCell"
	return i
}

// inlineGrid returns its cell runner as a literal in the return.
func inlineGrid() func(int) int {
	return func(i int) int {
		lastCell++ // want cellpurity "lastCell"
		return i
	}
}

// pureGrid's cell closure writes only its own state.
func pureGrid() (func() int, func(int) int) {
	return func() int { return 0 }, func(i int) int {
		local := map[int]int{}
		local[i] = i
		return len(local)
	}
}

func init() {
	spec, run := closureGrid("g")
	registerGrid("g", "closure cell", spec, run, nil)
	registerGrid("h", "inline cell", spec, inlineGrid(), nil)
	pspec, prun := pureGrid()
	registerGrid("p", "pure cell", pspec, prun, nil)
	registerGrid("l", "literal cell", spec, func(i int) int {
		gridHits["l"] = i // want cellpurity "gridHits"
		return i
	}, nil)
}

// sharedGrid's cell closure is a root, and sharedGrid itself is reached
// from a RunCell: the closure's write is still reported once.
func sharedGrid() func(int) int {
	return func(i int) int {
		lastCell = i // want cellpurity "lastCell"
		return i
	}
}

type SharedCell struct{}

func (SharedCell) RunCell() int { return sharedGrid()(1) }

func init() {
	spec, _ := closureGrid("s")
	registerGrid("s", "shared cell", spec, sharedGrid(), nil)
}
