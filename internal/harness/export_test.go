package harness

import (
	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
	"fp8quant/internal/resultstore"
)

// ComputeCellAt is ComputeCell over the idx-th cell's own address, for
// tests that do not derive it themselves; it returns the cell's key.
func ComputeCellAt(e Experiment, idx int) (resultstore.CellKey, evalx.Result) {
	spec := e.Spec()
	a := spec.CellKey(spec.CellAt(idx)).Addr()
	r, _ := ComputeCell(e, idx, a, nil)
	return a.Key, r
}

// CellNetwork returns the network withModelCell hands a cell of the
// named model on c's session, for the external tests that drive cells
// through a coordinator.
func CellNetwork(c Cell, name string) (net *models.Network) {
	withModelCell(c.session, name, "", func(n *models.Network, _ *evalx.Split) evalx.Result {
		net = n
		return evalx.Result{}
	})
	return net
}
