package main

import (
	"fmt"
	"os"
	"sync"

	"fp8quant/internal/data"
	"fp8quant/internal/evalx"
	"fp8quant/internal/harness"
	"fp8quant/internal/models"
	"fp8quant/internal/nn"
	"fp8quant/internal/quant"
	"fp8quant/internal/resultstore"
)

// table2Recipes are the constructors of the Table-2 recipe axis, in axis
// order, as the executor's sweep cell uses them. The traced path must
// produce the executor's exact bytes, so a drift between the two fails
// the run's byte checks.
var table2Recipes = []func(*models.Network) quant.Recipe{
	func(*models.Network) quant.Recipe { return quant.StandardFP8(quant.E5M2) },
	func(*models.Network) quant.Recipe { return quant.StandardFP8(quant.E4M3) },
	func(*models.Network) quant.Recipe { return quant.DynamicFP8(quant.E4M3) },
	func(*models.Network) quant.Recipe { return quant.StandardFP8(quant.E3M4) },
	func(*models.Network) quant.Recipe { return quant.DynamicFP8(quant.E3M4) },
	func(net *models.Network) quant.Recipe { return quant.StandardINT8(net.Meta.Domain != models.CV) },
}

// cellPath evaluates sweep cells through the same public calls the
// executor's sweep cell makes, with one span around each call: build,
// plan, FP32 reference (once per model and process), calibrate,
// quantized evaluation, release, and persistence. Like the executor it
// pools one execution plan per model and caches references per process.
type cellPath struct {
	tr    *tracer
	refs  sync.Map // model name -> *refOnce
	plans sync.Map // model name -> *sync.Pool of *nn.Plan
}

type refOnce struct {
	once sync.Once
	ref  evalx.Reference
}

// run evaluates cell c of spec and, when s is non-nil, saves it there.
func (p *cellPath) run(spec harness.GridSpec, c harness.Cell, s *resultstore.Store) evalx.Result {
	k := spec.CellKey(c)
	root := p.tr.begin("cell", k.Fingerprint(), 0)
	defer p.tr.end(root)
	name, ri := c.Values[0], c.Coords[1]
	var net *models.Network
	var err error
	p.tr.do("models.build", root, func() { net, err = models.Build(name) })
	if err != nil {
		return evalx.Failed(name, c.Values[1], err)
	}
	var release func()
	p.tr.do("nn.plan", root, func() { release = p.plan(name, net) })
	defer release()
	var ref evalx.Reference
	p.tr.do("evalx.reference", root, func() {
		e, _ := p.refs.LoadOrStore(name, &refOnce{})
		ro := e.(*refOnce)
		ro.once.Do(func() { ro.ref = evalx.ComputeReference(net) })
		ref = ro.ref
	})
	base := table2Recipes[ri](net)
	var h *quant.Handle
	p.tr.do("quant.calibrate", root, func() { h = quant.Quantize(net, net.Data, evalx.PaperRecipe(base, net)) })
	var acc float64
	p.tr.do("evalx.quant_eval", root, func() { acc = evalx.AccuracyAgainst(net, ref) })
	p.tr.do("quant.release", root, h.Release)
	r := evalx.Result{
		Model: net.Meta.Name, Domain: net.Meta.Domain, Recipe: base.Name(),
		BaseAcc: 1.0, QAcc: acc, RelLoss: data.RelativeLoss(1.0, acc), Pass: data.Passes(1.0, acc),
	}
	if s != nil {
		p.tr.do("resultstore.save", root, func() { err = s.SaveCell(k, r) })
		if err != nil {
			// Like the executor: the cell is still computed, the store
			// just misses it — which the run's store check counts.
			fmt.Fprintf(os.Stderr, "warning: result store write failed: %v\n", err)
		}
	}
	return r
}

// plan installs a pooled plan on a plannable network and returns the
// function that detaches it and returns it to the pool.
func (p *cellPath) plan(name string, net *models.Network) func() {
	if !net.Plannable() {
		return func() {}
	}
	pi, _ := p.plans.LoadOrStore(name, &sync.Pool{})
	pool := pi.(*sync.Pool)
	pl, _ := pool.Get().(*nn.Plan)
	if pl == nil {
		pl = nn.NewPlan(nil)
	}
	net.InstallPlan(pl)
	return func() {
		net.InstallPlan(nil)
		pl.Bind(nil)
		pool.Put(pl)
	}
}

// tracedExp is a grid experiment whose cells run through a cellPath; a
// traced fleet worker resolves the scheduled experiment to it.
type tracedExp struct {
	harness.Experiment
	spec harness.GridSpec
	path *cellPath
}

func (t tracedExp) RunCell(c harness.Cell) evalx.Result { return t.path.run(t.spec, c, nil) }
