package harness

import (
	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
)

// CellNetwork returns the network withModelCell hands a cell of the
// named model on c's session, for the external tests that drive cells
// through a coordinator.
func CellNetwork(c Cell, name string) (net *models.Network) {
	withModelCell(c.session, name, "", func(n *models.Network, _ evalx.Reference) evalx.Result {
		net = n
		return evalx.Result{}
	})
	return net
}
