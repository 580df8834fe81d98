package quant

import (
	"math"

	"fp8quant/internal/data"
	"fp8quant/internal/fp8"
	"fp8quant/internal/nn"
	"fp8quant/internal/tensor"
)

// Model is the contract the quantization workflow needs from a network:
// a module tree to rewrite and a forward runner for calibration.
type Model interface {
	// Root returns the module tree.
	Root() nn.Module
	// Run executes a forward pass, returning the model output.
	Run(s data.Sample) *tensor.Tensor
	// IsCNN reports whether the first/last-operator FP32 exception of
	// the standard scheme applies (convolutional networks only).
	IsCNN() bool
	// CellArena returns the arena Quantize carves FP32 weight masters
	// from (nn.Plan.Cell), or nil for the heap. Nothing else may carve
	// from it while a Handle is live.
	CellArena() *tensor.Arena
}

// Handle tracks the reversible state of a quantized model. Release
// restores the original FP32 model exactly: every weight, BatchNorm
// statistic and QState is bit for bit what it was before Quantize. The
// harness's network free list depends on it, handing a released
// network to the next sweep cell as if freshly built.
type Handle struct {
	states []*nn.QState
	// cell is the model's cell arena (nil: the heap), and weights maps
	// each modified weight to its FP32 master, carved from cell.
	cell    *tensor.Arena
	weights map[*tensor.Tensor][]float32
	rounded map[*tensor.Tensor]bool
	// bns and bnStats are the re-calibrated BatchNorms and their FP32
	// statistics (nn.SnapshotBatchNorms).
	bns     []*nn.BatchNorm2d
	bnStats [][]float32
	// Report summarizes what was quantized, for logs and tests.
	Report Report
}

// Report describes the outcome of a Quantize call.
type Report struct {
	// QuantizedOps counts fake-quantized leaf modules by kind.
	QuantizedOps map[string]int
	// FallbackOps lists module paths kept in FP32.
	FallbackOps []string
	// FirstOp and LastOp are the excluded first/last operator paths
	// (empty when not applicable).
	FirstOp, LastOp string
}

// save records w's FP32 master the first time Quantize is about to
// modify w in place (SmoothQuant folding or weight rounding), so the
// master is always the true original and each weight is copied once.
// The master is a copy carved from the cell arena: on a warm plan,
// memory an earlier cell already appended.
func (h *Handle) save(w *tensor.Tensor) {
	if _, saved := h.weights[w]; !saved {
		master := h.cell.Alloc(len(w.Data))
		copy(master, w.Data)
		h.weights[w] = master
	}
}

// Release restores FP32 weights, BatchNorm statistics, and removes all
// quantization hooks, leaving the model as Quantize found it. It copies
// each master back, so it must run before the cell arena's next cycle:
// the model's next Quantize, or another network's once the plan moves
// on.
func (h *Handle) Release() {
	for w, master := range h.weights {
		copy(w.Data, master)
	}
	nn.RestoreBatchNorms(h.bns, h.bnStats)
	for _, q := range h.states {
		q.Reset()
	}
}

// target is one quantization site: a QState plus the metadata needed to
// calibrate and convert it.
type target struct {
	path    string
	kind    string
	qs      *nn.QState
	output  bool // quantize the output instead of the input
	obs     Observer
	weight  *tensor.Tensor // non-nil for parametric modules
	wgtDim  int
	linear  *nn.Linear // non-nil for SmoothQuant-eligible sites
	colMax  []float64  // per-input-channel activation absmax
	smooth  []float64  // per-input-channel SmoothQuant divisors
	obsOnly bool
}

// Quantize applies recipe r to model m, calibrating on ds. It returns
// a Handle whose Release undoes everything. The model is modified in
// place (fake-quant hooks installed, weights rounded). Quantize starts
// a new cycle of m's cell arena, so the previous Handle on m must have
// been released.
func Quantize(m Model, ds data.Dataset, r Recipe) *Handle {
	h := &Handle{
		cell:    m.CellArena(),
		weights: make(map[*tensor.Tensor][]float32),
		rounded: make(map[*tensor.Tensor]bool),
		Report:  Report{QuantizedOps: make(map[string]int)},
	}
	h.cell.Reset()
	if r.Act == FP32 && r.Wgt == FP32 {
		return h
	}

	targets := collectTargets(m, r, h)

	// Phase 1: calibration (static approaches that need ranges).
	needCalib := r.Approach == Static && r.Act != FP32
	if needCalib || r.SmoothQuant {
		for _, t := range targets {
			t.attachObservers(r)
		}
		runBatches(m, ds, r.CalibBatches)
		for _, t := range targets {
			t.qs.Observe = nil
			t.qs.ObserveOutput = nil
		}
	}

	// Phase 2: convert — SmoothQuant folding, weight rounding, hook
	// installation.
	for _, t := range targets {
		t.convert(r, h)
	}

	// Phase 3: BatchNorm re-calibration on the quantized graph. The
	// statistics start warm, but each cycle moves a change only one
	// BatchNorm further down, so on deep networks the cap, not the 1%
	// convergence test, usually ends the estimate (137 of 156 calls in
	// a cold table2). The cap stays tight because each cycle costs full
	// calibration passes, and it decides reproduced numbers.
	if r.BNCalib {
		h.bns = nn.BatchNorms(m.Root())
		h.bnStats = nn.SnapshotBatchNorms(h.bns)
		cycles := 4
		if r.BNCalibBatches >= 32 {
			cycles = 2
		}
		nn.CalibrateBatchNorms(h.bns, cycles, func() { runBatches(m, ds, r.BNCalibBatches) })
	}
	return h
}

// runBatches feeds n batches (cycling if the dataset is smaller)
// through the model.
func runBatches(m Model, ds data.Dataset, n int) {
	if n <= 0 {
		n = 1
	}
	total := ds.Batches()
	if total == 0 {
		return
	}
	for i := 0; i < n; i++ {
		m.Run(ds.Batch(i % total))
	}
}

// binaryOp is a two-operand leaf (AddOp, MulOp, BatchMatMulOp); the
// extended scheme quantizes each operand on its own.
type binaryOp interface {
	Operands() (a, b *nn.QState)
}

// collectTargets walks the model and builds the quantization site list
// according to the recipe's scheme.
func collectTargets(m Model, r Recipe, h *Handle) []*target {
	type entry struct {
		path string
		mod  nn.Module
	}
	var order []entry
	nn.Walk(m.Root(), func(path string, mod nn.Module) {
		order = append(order, entry{path, mod})
	})

	// First conv / last linear exclusion (CNNs, standard scheme).
	firstConv, lastLinear := "", ""
	if m.IsCNN() && !r.QuantFirstLast {
		for _, e := range order {
			if _, ok := e.mod.(*nn.Conv2d); ok {
				firstConv = e.path
				break
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			if _, ok := order[i].mod.(*nn.Linear); ok {
				lastLinear = order[i].path
				break
			}
		}
	}
	h.Report.FirstOp, h.Report.LastOp = firstConv, lastLinear

	var targets []*target
	add := func(t *target) { targets = append(targets, t) }
	for _, e := range order {
		if r.Fallback[e.path] {
			h.Report.FallbackOps = append(h.Report.FallbackOps, e.path)
			continue
		}
		if e.path == firstConv || e.path == lastLinear {
			h.Report.FallbackOps = append(h.Report.FallbackOps, e.path)
			continue
		}
		switch mod := e.mod.(type) {
		case *nn.Linear, *nn.Conv2d, *nn.Conv1d:
			p := mod.(nn.Parametric)
			t := &target{path: e.path, kind: mod.Kind(), qs: mod.(nn.Quantizable).Q(),
				weight: p.WeightTensor(), wgtDim: p.OutChannelDim()}
			t.linear, _ = mod.(*nn.Linear)
			add(t)
		case *nn.Embedding, *nn.EmbeddingBag:
			// Standard scheme: weight-only; extended also quantizes
			// the gathered output tensor.
			p := mod.(nn.Parametric)
			add(&target{path: e.path, kind: mod.Kind(), qs: mod.(nn.Quantizable).Q(),
				weight: p.WeightTensor(), wgtDim: p.OutChannelDim(), output: true, obsOnly: !r.ExtendedOps})
		case *nn.LayerNorm, *nn.RMSNorm, *nn.GroupNorm, *nn.BatchNorm2d:
			if r.ExtendedOps {
				add(&target{path: e.path, kind: mod.Kind(), qs: mod.(nn.Quantizable).Q(), output: true})
			}
		case *nn.AddOp, *nn.MulOp, *nn.BatchMatMulOp:
			if r.ExtendedOps {
				qa, qb := mod.(binaryOp).Operands()
				add(&target{path: e.path + "#a", kind: mod.Kind(), qs: qa})
				add(&target{path: e.path + "#b", kind: mod.Kind(), qs: qb})
			}
		}
	}
	return targets
}

// attachObservers wires calibration hooks for the target.
func (t *target) attachObservers(r Recipe) {
	t.obs = NewObserver(r.Calib)
	obs := t.obs
	if t.output {
		t.qs.ObserveOutput = obs.Observe
	} else if t.linear != nil && r.SmoothQuant {
		in := t.linear.In
		t.colMax = make([]float64, in)
		cm := t.colMax
		t.qs.Observe = func(v []float32) {
			obs.Observe(v)
			for i, x := range v {
				a := math.Abs(float64(x))
				if a > cm[i%in] {
					cm[i%in] = a
				}
			}
		}
	} else {
		t.qs.Observe = obs.Observe
	}
}

// convert installs the final quantization hooks and rounds weights.
func (t *target) convert(r Recipe, h *Handle) {
	h.states = append(h.states, t.qs)

	// SmoothQuant folding on Linear layers (before weight rounding).
	if t.linear != nil && r.SmoothQuant && t.colMax != nil {
		t.smooth = applySmoothQuant(t.linear, t.colMax, r.SmoothAlpha, h)
	}

	// Weight rounding (once per tensor, even when shared/tied), in
	// place after the master is saved. E5M2 Direct rounds straight to
	// the FP8 grid with no scaling.
	if t.weight != nil && r.Wgt != FP32 && !h.rounded[t.weight] {
		h.rounded[t.weight] = true
		h.save(t.weight)
		if r.Approach == Direct && r.Wgt.IsFP8() {
			r.Wgt.Format().Codec().QuantizeSlice(t.weight.Data, t.weight.Data)
		} else {
			quantizeChannels(t.weight, t.wgtDim, r.Wgt)
		}
	}

	// Activation hooks.
	if r.Act == FP32 || t.obsOnly {
		return
	}
	threshold, mn, mx := t.calibrated(r)
	fn := ActQuantFunc(r, threshold, mn, mx)
	if fn == nil {
		return
	}
	if t.smooth != nil {
		fn = composeSmooth(t.smooth, fn)
	}
	if t.output {
		t.qs.Output = fn
	} else {
		t.qs.Input = fn
	}
	h.Report.QuantizedOps[t.kind]++
}

// calibrated resolves the threshold and range for a static target.
func (t *target) calibrated(r Recipe) (threshold, mn, mx float64) {
	if t.obs == nil {
		return 0, 0, 0
	}
	mk := func(th float64) Quantizer {
		if r.Act == INT8 {
			return fp8.NewInt8Symmetric(th)
		}
		return NewScaledFP8(r.Act.Format(), th)
	}
	threshold = CalibratedThreshold(t.obs, r.Calib, mk)
	mn, mx = t.obs.Range()
	if t.smooth != nil {
		// Ranges shift after smoothing: recompute from column maxima.
		threshold = 0
		for j, c := range t.colMax {
			s := t.smooth[j]
			if v := c / s; v > threshold {
				threshold = v
			}
		}
		mn, mx = -threshold, threshold
	}
	return threshold, mn, mx
}

// applySmoothQuant folds per-channel smoothing scales into the weight
// (W[:, j] *= s_j) and returns the divisors applied to the activation.
// s_j = actMax_j^alpha / wMax_j^(1-alpha), the SmoothQuant migration.
func applySmoothQuant(l *nn.Linear, colMax []float64, alpha float64, h *Handle) []float64 {
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.5
	}
	in, out := l.In, l.Out
	// s_j starts as the input channel's weight absmax (over output
	// rows) and becomes its divisor in place.
	s := make([]float64, in)
	for o := 0; o < out; o++ {
		row := l.W.Data[o*in : (o+1)*in]
		for j, v := range row {
			a := math.Abs(float64(v))
			if a > s[j] {
				s[j] = a
			}
		}
	}
	for j, wMax := range s {
		if colMax[j] == 0 || wMax == 0 {
			s[j] = 1
			continue
		}
		v := math.Pow(colMax[j], alpha) / math.Pow(wMax, 1-alpha)
		if v < 1e-5 {
			v = 1e-5
		} else if v > 1e5 {
			v = 1e5
		}
		s[j] = v
	}
	h.save(l.W)
	for o := 0; o < out; o++ {
		row := l.W.Data[o*in : (o+1)*in]
		for j := range row {
			row[j] *= float32(s[j])
		}
	}
	return s
}

// composeSmooth divides activations by the smoothing scales before the
// quantization function runs.
func composeSmooth(s []float64, fn nn.QuantFunc) nn.QuantFunc {
	in := len(s)
	inv := make([]float32, in)
	for j, v := range s {
		inv[j] = float32(1 / v)
	}
	return func(dst, src []float32) {
		for i, v := range src {
			dst[i] = v * inv[i%in]
		}
		fn(dst, dst)
	}
}
