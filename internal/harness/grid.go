// Declarative grid model: an experiment describes its schedule as a
// GridSpec — ordered named axes whose cartesian product is the cell
// set — instead of hiding it inside an opaque run function. Cell
// identity (grid id + axis coordinates + seed + schema version) is
// stable across processes, which is what makes per-cell persistence
// and resume possible: the executor can ask the store for exactly the
// cells it is about to compute.

package harness

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"fp8quant/internal/evalx"
	"fp8quant/internal/resultstore"
)

// Axis is one named dimension of an experiment grid.
type Axis struct {
	Name   string
	Values []string
}

// GridSpec declares an experiment's cell schedule. The cell order is
// row-major over the axes (last axis fastest), so a [model, recipe]
// spec enumerates all recipes of model 0, then model 1, matching the
// [model][recipe] indexing of the old whole-grid sweeps.
type GridSpec struct {
	// ID is the grid identity. Experiments that share a grid (table2,
	// fig4 and fig5 all consume the Table-2 sweep) declare the same ID
	// and so share memoized and persisted cells.
	ID string
	// Seed is the experiment-level seed, part of every cell identity.
	Seed uint64
	// Axes, outermost first. A spec with no axes has no cells; its
	// experiment computes everything in Render (scalar experiments).
	Axes []Axis
}

// NumCells returns the total cell count (0 for an axis-less spec).
func (s GridSpec) NumCells() int {
	if len(s.Axes) == 0 {
		return 0
	}
	n := 1
	for _, a := range s.Axes {
		n *= len(a.Values)
	}
	return n
}

// Cell is one grid point, handed to RunCell.
type Cell struct {
	// Index is the row-major position in the spec's cell order.
	Index int
	// Coords are the per-axis value indices.
	Coords []int
	// Values are the resolved per-axis values.
	Values []string
	// session is the model session of the worker running the cell
	// (session.go): RunGrid and ComputeCell set it, CellAt leaves it
	// nil, and a nil session serves one cell alone.
	session *Session
}

// CellAt returns the i-th cell in row-major order.
func (s GridSpec) CellAt(i int) Cell {
	c := Cell{
		Index:  i,
		Coords: make([]int, len(s.Axes)),
		Values: make([]string, len(s.Axes)),
	}
	rem := i
	for ai := len(s.Axes) - 1; ai >= 0; ai-- {
		n := len(s.Axes[ai].Values)
		c.Coords[ai] = rem % n
		rem /= n
		c.Values[ai] = s.Axes[ai].Values[c.Coords[ai]]
	}
	return c
}

// CellModels returns the model of each given row-major cell index: its
// "model" axis value, or, in a grid without a model axis, the part
// after the last '/' of its "config" axis value (fig9 flattens
// domain/format/coverage/model into one config axis). A config value
// without a '/', or a grid with neither axis, gives "". It finds the
// axis once and reads each cell's model by index arithmetic, so it
// allocates only the result.
func (s GridSpec) CellModels(idx []int) []string {
	models := make([]string, len(idx))
	axis, stride := -1, 0
	for ai, st := len(s.Axes)-1, 1; ai >= 0; ai-- {
		if n := s.Axes[ai].Name; n == "model" || (n == "config" && axis < 0) {
			axis, stride = ai, st
		}
		st *= len(s.Axes[ai].Values)
	}
	if axis < 0 {
		return models
	}
	a := s.Axes[axis]
	for k, i := range idx {
		v := a.Values[i/stride%len(a.Values)]
		if a.Name == "config" {
			if j := strings.LastIndexByte(v, '/'); j >= 0 {
				v = v[j+1:]
			} else {
				v = ""
			}
		}
		models[k] = v
	}
	return models
}

// CellKey returns the cell's persistent identity for the result store.
func (s GridSpec) CellKey(c Cell) resultstore.CellKey {
	av := make([]resultstore.AxisValue, len(s.Axes))
	for ai, a := range s.Axes {
		av[ai] = resultstore.AxisValue{Axis: a.Name, Value: c.Values[ai]}
	}
	return resultstore.CellKey{Grid: s.ID, Cell: av, Seed: s.Seed, Schema: resultstore.SchemaVersion}
}

// KeyString returns the human-readable cell label
// ("model=resnet50,recipe=E4M3 Static").
func (s GridSpec) KeyString(c Cell) string {
	var b strings.Builder
	for ai, a := range s.Axes {
		if ai > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.Name)
		b.WriteByte('=')
		b.WriteString(c.Values[ai])
	}
	return b.String()
}

// Grid is an executed (or partially executed) cell grid: the spec plus
// row-major results. Cells that were not selected (filtered runs) stay
// zero-valued.
type Grid struct {
	Spec    GridSpec
	Results []evalx.Result
}

// At returns the result at the given per-axis coordinates.
func (g *Grid) At(coords ...int) evalx.Result {
	if len(coords) != len(g.Spec.Axes) {
		panic(fmt.Sprintf("harness: Grid.At got %d coords for %d axes", len(coords), len(g.Spec.Axes)))
	}
	idx := 0
	for ai, ci := range coords {
		idx = idx*len(g.Spec.Axes[ai].Values) + ci
	}
	return g.Results[idx]
}

// Filter selects a sub-grid: axis name -> allowed values. A cell
// matches when, for every filter axis the spec declares, its value is
// allowed. A filter axis the spec does not declare matches no cell
// (the experiment has no such dimension).
type Filter map[string][]string

// ParseFilter parses the fp8bench -filter syntax:
// "axis=value,axis=value" with ";"-separated alternative values
// ("model=resnet50;densenet121,recipe=E4M3 Static").
func ParseFilter(s string) (Filter, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	f := Filter{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 || strings.TrimSpace(kv[0]) == "" {
			return nil, fmt.Errorf("bad filter term %q (want axis=value)", part)
		}
		name := strings.TrimSpace(kv[0])
		for _, v := range strings.Split(kv[1], ";") {
			// Trim around separators so "a; b" means ["a", "b"] — an
			// untrimmed " b" would silently match nothing and shrink
			// the sub-grid.
			v = strings.TrimSpace(v)
			if v == "" {
				return nil, fmt.Errorf("bad filter term %q (empty value)", part)
			}
			f[name] = append(f[name], v)
		}
	}
	return f, nil
}

// String formats the filter canonically (sorted axes).
func (f Filter) String() string {
	names := make([]string, 0, len(f))
	for n := range f {
		names = append(names, n)
	}
	sort.Strings(names)
	var parts []string
	for _, n := range names {
		parts = append(parts, n+"="+strings.Join(f[n], ";"))
	}
	return strings.Join(parts, ",")
}

// AxisNames returns the spec's declared axis names in order.
func (s GridSpec) AxisNames() []string {
	out := make([]string, len(s.Axes))
	for i, a := range s.Axes {
		out[i] = a.Name
	}
	return out
}

// unknownAxes returns, sorted, the filter's axis names the spec does
// not declare — the single source of truth for "does this filter even
// apply here", shared by ValidateFilter, ValidateFilterAxes and Select.
func (s GridSpec) unknownAxes(f Filter) []string {
	declared := map[string]bool{}
	for _, a := range s.Axes {
		declared[a.Name] = true
	}
	var unknown []string
	for name := range f {
		if !declared[name] {
			unknown = append(unknown, name)
		}
	}
	sort.Strings(unknown)
	return unknown
}

// ValidateFilter rejects a filter naming an axis the spec does not
// declare. A typo'd axis name would otherwise select an empty sub-grid
// and read like "no cells matched" — the error instead names the
// offending axes and lists what the grid actually has.
func (s GridSpec) ValidateFilter(f Filter) error {
	unknown := s.unknownAxes(f)
	if len(unknown) == 0 {
		return nil
	}
	if len(s.Axes) == 0 {
		return fmt.Errorf("unknown filter axis %s: grid %s has no axes (scalar experiment)",
			strings.Join(unknown, ", "), s.ID)
	}
	return fmt.Errorf("unknown filter axis %s: grid %s has axes %s",
		strings.Join(unknown, ", "), s.ID, strings.Join(s.AxisNames(), ", "))
}

// ValidateFilterAxes is the filter check for a batch of experiments
// (fp8bench -exp, an fp8coord schedule): it rejects a filter naming an
// axis no experiment declares, listing each experiment's axes. An axis
// only some experiments declare is fine: the others select no cell
// and the batch skips them (fig6 has no "model" axis, scalar fig1 no
// cells at all).
func ValidateFilterAxes(exps []Experiment, f Filter) error {
	if len(f) == 0 {
		return nil
	}
	lacking := map[string]int{} // axis → experiments that lack it
	grids := make([]string, len(exps))
	for i, e := range exps {
		spec := e.Spec()
		for _, name := range spec.unknownAxes(f) {
			lacking[name]++
		}
		axes := "(no axes)"
		if len(spec.Axes) > 0 {
			axes = strings.Join(spec.AxisNames(), ", ")
		}
		grids[i] = e.ID() + ": " + axes
	}
	var unknown []string
	for name, n := range lacking {
		if n == len(exps) {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	return fmt.Errorf("unknown axis %s; valid axes per experiment — %s",
		strings.Join(unknown, ", "), strings.Join(grids, "; "))
}

// Select returns the row-major indices of the cells matching the
// filter (all cells for an empty filter). It matches each index's
// coordinates by row-major arithmetic, so it allocates per axis, not
// per cell.
func (s GridSpec) Select(f Filter) []int {
	n := s.NumCells()
	if len(f) == 0 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	// A filter axis the spec does not declare can match nothing.
	if len(s.unknownAxes(f)) > 0 {
		return nil
	}
	// admit[ai][vi] says whether the filter admits value vi of axis ai;
	// nil admits every value of an unfiltered axis.
	admit := make([][]bool, len(s.Axes))
	for ai, a := range s.Axes {
		want, filtered := f[a.Name]
		if !filtered {
			continue
		}
		admit[ai] = make([]bool, len(a.Values))
		for vi, v := range a.Values {
			admit[ai][vi] = slices.Contains(want, v)
		}
	}
	var out []int
cells:
	for i := 0; i < n; i++ {
		rem := i
		for ai := len(s.Axes) - 1; ai >= 0; ai-- {
			k := len(s.Axes[ai].Values)
			if admit[ai] != nil && !admit[ai][rem%k] {
				continue cells
			}
			rem /= k
		}
		out = append(out, i)
	}
	return out
}
