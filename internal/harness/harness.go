// Package harness regenerates every table and figure of the paper's
// evaluation section. Every experiment is a declarative grid: it
// states its schedule (Spec — ordered named axes whose product is the
// cell set), a pure per-cell computation (RunCell), and a presentation
// step (Render) that turns the completed grid into a human-readable
// report plus structured values the test-suite asserts shape
// properties on. A single executor (executor.go) owns worker-pool
// fan-out, in-process memoization and per-cell persistence for all of
// them.
//
// Experiment ids name the paper's tables and figures (README,
// "Evaluation protocol"): fig1, fig3, table2, fig4, table3, fig5, fig6,
// table4, fig7, fig8, table5, table6, fig9, fig10, firstlast.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"fp8quant/internal/evalx"
)

// Experiment is a reproduction unit declared as a cell grid. Run one
// with harness.Run (or RunGrid for filtered sub-grids).
type Experiment interface {
	// ID is the table/figure identifier (e.g. "table2").
	ID() string
	// Title describes the paper artifact.
	Title() string
	// Spec declares the grid schedule. A spec with no axes has no
	// cells; the experiment computes everything in Render.
	Spec() GridSpec
	// RunCell evaluates one cell. It must be pure: build (or
	// deterministically rebuild) everything it mutates, confine writes
	// to cell-local state, and return the same result for the same
	// cell regardless of scheduling. Never called for axis-less specs.
	RunCell(Cell) evalx.Result
	// Render turns the completed grid into the experiment's report.
	Render(*Grid) *Report
}

// Report carries the formatted output and the structured numbers.
type Report struct {
	// Text is the printable reproduction of the table/figure.
	Text string
	// Values holds named scalar results for programmatic checks.
	Values map[string]float64
}

// gridExp is the declarative Experiment implementation every exp_*.go
// file registers.
type gridExp struct {
	id, title string
	spec      func() GridSpec
	cell      func(Cell) evalx.Result
	render    func(*Grid) *Report
}

func (g gridExp) ID() string    { return g.id }
func (g gridExp) Title() string { return g.title }
func (g gridExp) Spec() GridSpec {
	if g.spec == nil {
		return GridSpec{ID: g.id}
	}
	return g.spec()
}
func (g gridExp) RunCell(c Cell) evalx.Result { return g.cell(c) }
func (g gridExp) Render(gr *Grid) *Report     { return g.render(gr) }

// registry of experiments, populated by init() in exp_*.go files.
var experiments = map[string]Experiment{}

func registerExp(e Experiment) {
	if _, dup := experiments[e.ID()]; dup {
		panic("harness: duplicate experiment " + e.ID())
	}
	experiments[e.ID()] = e
}

// registerGrid registers a declarative grid experiment.
func registerGrid(id, title string, spec func() GridSpec, cell func(Cell) evalx.Result, render func(*Grid) *Report) {
	registerExp(gridExp{id: id, title: title, spec: spec, cell: cell, render: render})
}

// registerScalar registers a cell-less experiment: a cheap computation
// with no grid to schedule, run entirely inside Render.
func registerScalar(id, title string, run func() *Report) {
	registerExp(gridExp{id: id, title: title, render: func(*Grid) *Report { return run() }})
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(experiments))
	for id := range experiments {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	e, ok := experiments[id]
	return e, ok
}

// ResolveIDs expands and validates an -exp argument: "all", or a
// comma-separated list of registered ids (blank entries are skipped).
func ResolveIDs(arg string) ([]string, error) {
	if arg == "all" {
		return IDs(), nil
	}
	var ids []string
	for _, id := range strings.Split(arg, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if _, ok := Get(id); !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no experiment ids in %q", arg)
	}
	return ids, nil
}

// table is a tiny fixed-width text table builder.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

func pct(x float64) string { return fmt.Sprintf("%.2f%%", x) }
