// Model sessions. The paper's workflow quantizes one FP32 model under
// many recipes, and both schedulers hand a worker a model's cells in a
// row: forEachCell's model-affine claims (sweep.go) and the
// coordinator's group grants (coord.Worker.Run). A Session is one such
// worker's model state. It owns the worker's execution plan for the
// worker's life, and the FP32 network of the model its current cells
// share.
//
// A model's first cell builds the network on the session's plan
// (models.BuildOn), so its BatchNorm warm-up runs in the chunks the
// cells then reuse. Later cells of the model take the same network with
// the plan still installed, and read the calibration batches it
// memoizes. They stay pure because every model cell ends with
// quant.Handle.Release, which restores the weights, the BatchNorm
// statistics and every QState exactly (TestReleaseRestoresZooNetworks):
// the network a cell takes is, bit for bit, what a fresh build would
// return. A session lives for one RunGrid or one coord.Worker.Run, and
// the kernel tier is fixed for the process, so the network matches by
// model alone. The session drops the network when the worker moves to
// another model, and when a cell panics, since that cell may have left
// it half quantized.
//
// Next to the network the session holds the model's eval split
// (evalx.Split), made on the model's first cell from the process's
// cached FP32 reference: the stream buffer the split's batches are
// generated into and the packed kept samples that row-independent
// cells forward. It is dropped with the network (drop).
//
// Before it builds a network after dropping one, the session collects
// (runtime.GC): nothing else holds the dropped network, its site
// table, its batches or its split (the process's caches keep FP32
// references and BatchNorm statistics, never a network), so the next
// build, reference and cells reuse that memory instead of growing the
// heap until the collector's pacer catches up. Collections follow
// model switches, not cells, and a session's first model collects
// nothing. The heap, and with it the process's peak RSS, is then
// bounded by the number of workers' live models, not by the number
// of models a process has run.

package harness

import (
	"runtime"

	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
	"fp8quant/internal/nn"
)

// Session is one claim-loop worker's model state. It holds one model
// at a time, and collects the one it dropped before it builds the next.
// The zero value is ready to use; a Session is not safe for concurrent
// use.
type Session struct {
	plan  *nn.Plan
	net   *models.Network
	split *evalx.Split
	name  string
}

// network returns the session's FP32 network of the named model, with
// the session's plan installed. If the session holds another model's
// network, it drops that one; a session whose plan has served a network
// before collects the dropped one's memory, then builds the model on
// the plan.
func (s *Session) network(name string) (*models.Network, error) {
	if s.net != nil && s.name == name {
		return s.net, nil
	}
	if s.plan == nil {
		s.plan = nn.NewPlan(nil)
	} else {
		s.drop()
		runtime.GC()
	}
	net, err := models.BuildOn(name, s.plan)
	if err != nil {
		return nil, err
	}
	s.net, s.name = net, name
	return net, nil
}

// withModelCell runs the steps every model cell shares: it takes the
// session's FP32 network of the named model (network) and the model's
// eval split, made from its FP32 reference on the model's first cell,
// and hands both to eval. eval must leave the network as it found it,
// which quant.Handle.Release does; if eval panics, the session drops
// the network and its split. A nil session serves this one cell alone,
// on a fresh plan. A model that fails to build yields a Failed result
// under label.
func withModelCell(s *Session, name, label string, eval func(*models.Network, *evalx.Split) evalx.Result) evalx.Result {
	if s == nil {
		s = new(Session)
	}
	net, err := s.network(name)
	if err != nil {
		return evalx.Failed(name, label, err)
	}
	if s.split == nil {
		s.split = evalx.NewSplit(modelRef(name, net))
	}
	returned := false
	defer func() {
		if !returned {
			s.drop()
		}
	}()
	r := eval(net, s.split)
	returned = true
	return r
}

// drop lets go of the session's network and its split. The memory they
// hold is collected before the session builds its next network
// (network), once the frames of a panicking cell no longer reach it.
func (s *Session) drop() { s.net, s.split = nil, nil }
