// Network free list. The paper's workflow quantizes one FP32 model
// under many recipes, restoring it between them, and every model cell
// ends the same way: quant.Handle.Release restores the weights, the
// BatchNorm statistics and every QState exactly. So a finished cell's
// network is, bit for bit, what models.Build would return, and the next
// cell of the model takes it instead of building again.
// TestReleaseRestoresZooNetworks proves that restoration per builder
// family; a cell that panics may have left its network half quantized,
// so only a cell that returns normally hands its network back. The key
// holds the kernel variant because the BatchNorm warm-up ran that
// variant's kernels. A cell takes its plan first (plancache.go) and
// then its network with that plan installed, pooled or built on it;
// it uninstalls the plan before handing the network back, and the
// masters Release copies back live in the plan, so a pooled network
// never holds plan memory.

package harness

import (
	"sync"

	"fp8quant/internal/models"
	"fp8quant/internal/nn"
	"fp8quant/internal/tensor/kernels"
)

// maxIdleNets caps the idle networks; zoo weights are at most ~0.6 MB
// a model. A constant, not the worker count, so the networks a process
// holds never depend on its host.
const maxIdleNets = 4

type netKey struct {
	name    string
	variant kernels.Variant
}

type idleNet struct {
	key netKey
	net *models.Network
}

var (
	netsMu   sync.Mutex
	idleNets []idleNet // least recently returned first
)

// takeNet returns, with p installed, an idle FP32 network of the model
// key names, built under key's kernel variant, or one freshly built on p
// if none is idle.
func takeNet(key netKey, p *nn.Plan) (*models.Network, error) {
	netsMu.Lock()
	for i := len(idleNets) - 1; i >= 0; i-- {
		if idleNets[i].key == key {
			net := idleNets[i].net
			//fp8vet:ignore cellpurity mutex-guarded pool of FP32 networks that Release restored bit for bit (TestReleaseRestoresZooNetworks), so a pooled network equals a fresh Build and cell order cannot matter
			idleNets = dropNet(idleNets, i)
			netsMu.Unlock()
			net.InstallPlan(p)
			return net, nil
		}
	}
	netsMu.Unlock()
	return models.BuildOn(key.name, p)
}

// putNet hands a restored network back to the free list, dropping the
// least recently returned one past maxIdleNets. The network must have
// no plan installed: the free list holds networks, not plans.
func putNet(key netKey, net *models.Network) {
	netsMu.Lock()
	//fp8vet:ignore cellpurity mutex-guarded pool of FP32 networks that Release restored bit for bit (TestReleaseRestoresZooNetworks), so a pooled network equals a fresh Build and cell order cannot matter
	idleNets = append(idleNets, idleNet{key, net})
	if len(idleNets) > maxIdleNets {
		//fp8vet:ignore cellpurity mutex-guarded pool of FP32 networks that Release restored bit for bit (TestReleaseRestoresZooNetworks), so a pooled network equals a fresh Build and cell order cannot matter
		idleNets = dropNet(idleNets, 0)
	}
	netsMu.Unlock()
}

// dropNet removes nets[i], clearing the vacated slot so the array does
// not keep the network alive.
func dropNet(nets []idleNet, i int) []idleNet {
	copy(nets[i:], nets[i+1:])
	nets[len(nets)-1] = idleNet{}
	return nets[:len(nets)-1]
}

// clearNets drops every idle network, so the next cell builds cold.
func clearNets() {
	netsMu.Lock()
	idleNets = nil
	netsMu.Unlock()
}
