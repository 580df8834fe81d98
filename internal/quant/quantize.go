// Quantize runs the paper's workflow (Figure 2) on a model in place:
// calibrate, convert (SmoothQuant folding, weight rounding, hook
// installation), then re-estimate BatchNorm statistics. Everything it
// derives from the module tree alone lives in the model's Sites: the
// walk order with paths, the quantization sites with their observers
// and SmoothQuant buffers, the weight-master maps and the BatchNorm
// snapshot and accumulator slabs. The model's first Quantize fills the
// table and every later one reuses it, so a session's network that runs
// all of its model's recipes walks its module tree once; each call only
// filters the table by its recipe (first/last exclusion, extended
// coverage) and resets what it uses.

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
	// Sites returns the model's site table: a zero Sites the model
	// holds for its whole life and Quantize alone fills and uses. Its
	// module tree must not change after the first Quantize.
	Sites() *Sites
}

// Sites is a model's quantization-site table. The zero value is empty;
// the model's first Quantize fills it from the module tree and every
// later Quantize reuses it, so it holds the state of at most one live
// Handle: the previous Handle on the model must be released before the
// next Quantize.
type Sites struct {
	// builds counts table fills: 0 before the model's first Quantize,
	// then 1.
	builds int
	// order is every module in walk order with its path; the sites of
	// order[i] are targets[order[i].lo:order[i].hi].
	order   []siteEntry
	targets []target
	// firstConv and lastLinear are the paths of the first Conv2d and
	// the last Linear in walk order ("" for none), the CNN standard
	// scheme's FP32 exceptions.
	firstConv, lastLinear string
	// smoothCarved reports whether the Linear sites' SmoothQuant
	// buffers are carved (the first SmoothQuant recipe carves them).
	smoothCarved bool
	// bns are the model's BatchNorms in walk order.
	bns []*nn.BatchNorm2d

	// Per-call state, reset by each Quantize. batchCoupled reports
	// that the live Handle's recipe is not RowIndependent (Release
	// clears it); active lists the sites the recipe quantizes; cell is
	// the arena weight masters are carved from (nil: the heap), weights
	// maps each modified weight to its FP32 master and rounded marks
	// the weights already rounded.
	batchCoupled bool
	active       []*target
	cell         *tensor.Arena
	weights      map[*tensor.Tensor][]float32
	rounded      map[*tensor.Tensor]bool
	// bnStats is the BatchNorms' FP32 statistics snapshot that Release
	// restores, and calib the re-estimation's accumulators and
	// snapshots (nn.CalibScratch).
	bnStats []float32
	calib   nn.CalibScratch
}

// siteEntry is one module of the walk: its path and its range of
// sites.
type siteEntry struct {
	path   string
	lo, hi int
}

// Handle tracks the reversible state of a quantized model. Release
// restores the original FP32 model exactly: every weight, BatchNorm
// statistic and QState is bit for bit what it was before Quantize. The
// harness's model sessions depend on it, handing a released network to
// the worker's next cell of the model as if freshly built.
type Handle struct {
	// sites is the model's table, which holds the weight masters and
	// the quantized sites (nil: Quantize changed nothing).
	sites *Sites
	// bnCalib reports whether the BatchNorms were re-estimated, their
	// FP32 statistics saved in sites.bnStats.
	bnCalib bool
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
func (s *Sites) save(w *tensor.Tensor) {
	if _, saved := s.weights[w]; !saved {
		master := s.cell.Alloc(len(w.Data))
		copy(master, w.Data)
		s.weights[w] = master
	}
}

// Release restores FP32 weights, BatchNorm statistics, and removes all
// quantization hooks, leaving the model as Quantize found it. It copies
// each master back, so it must run before the cell arena's next cycle:
// the model's next Quantize, or another network's once the plan moves
// on.
func (h *Handle) Release() {
	s := h.sites
	if s == nil {
		return
	}
	for w, master := range s.weights {
		copy(w.Data, master)
	}
	if h.bnCalib {
		nn.RestoreBatchNorms(s.bns, s.bnStats)
	}
	for _, t := range s.active {
		t.qs.Reset()
	}
	s.batchCoupled = false
}

// RowIndependent reports whether the model's forward, as the live
// Handle on it left it, computes each output row from its own input row
// alone: true with no live Handle (the FP32 network) or under a
// RowIndependent recipe. A caller may then run any subset of a batch's
// samples and get their rows bit for bit.
func (s *Sites) RowIndependent() bool { return !s.batchCoupled }

// target is one quantization site: a QState plus the metadata needed to
// calibrate and convert it. The first block is fixed when the table is
// built; the rest is the state of the current Quantize.
type target struct {
	kind   string
	qs     *nn.QState
	output bool // quantize the output instead of the input
	// extOnly sites (norms, binary operands) are quantized only under
	// the extended scheme; embedding sites only observe without it.
	extOnly, embedding bool
	weight             *tensor.Tensor // non-nil for parametric modules
	wgtDim             int
	linear             *nn.Linear // non-nil for SmoothQuant-eligible sites
	// record and quantize are the site's calibration and activation
	// hooks, bound once (a method value allocates).
	record   nn.ObserveFunc
	quantize nn.QuantFunc

	// obs is this call's observer (nil: not calibrated), mm the
	// CalibMax observer it points at. smoothing reports whether this
	// call smooths the site: colMax then gathers the per-input-channel
	// activation absmax, smooth holds the SmoothQuant divisors and inv
	// their reciprocals. act is this call's activation quantizer.
	obs       Observer
	mm        MinMaxObserver
	smoothing bool
	colMax    []float64
	smooth    []float64
	inv       []float32
	act       ActQuant
}

// Quantize applies recipe r to model m, calibrating on ds. It returns
// a Handle whose Release undoes everything. The model is modified in
// place (fake-quant hooks installed, weights rounded). Quantize starts
// a new cycle of m's cell arena and reuses m's Sites, so the previous
// Handle on m must have been released.
func Quantize(m Model, ds data.Dataset, r Recipe) *Handle {
	h := &Handle{Report: Report{QuantizedOps: make(map[string]int)}}
	cell := m.CellArena()
	cell.Reset()
	if r.Act == FP32 && r.Wgt == FP32 {
		return h
	}
	s := m.Sites()
	if s.builds == 0 {
		s.build(m.Root())
	}
	h.sites = s
	s.batchCoupled = !r.RowIndependent()
	s.cell = cell
	clear(s.weights)
	clear(s.rounded)
	targets := s.activate(m.IsCNN(), r, &h.Report)

	// Phase 1: calibration (static approaches that need ranges).
	needCalib := r.Approach == Static && r.Act != FP32
	if needCalib || r.SmoothQuant {
		if r.SmoothQuant && !s.smoothCarved {
			s.carveSmooth()
		}
		for _, t := range targets {
			t.observe(r)
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
		s.convert(t, r, &h.Report)
	}

	// Phase 3: BatchNorm re-calibration on the quantized graph. The
	// statistics start warm, but each cycle moves a change only one
	// BatchNorm further down, so on deep networks the cap, not the 1%
	// convergence test, usually ends the estimate (137 of 156 calls in
	// a cold table2). The cap stays tight because each cycle costs full
	// calibration passes, and it decides reproduced numbers.
	if r.BNCalib {
		h.bnCalib = true
		s.bnStats = nn.SnapshotBatchNorms(s.bns, s.bnStats)
		cycles := 4
		if r.BNCalibBatches >= 32 {
			cycles = 2
		}
		nn.CalibrateBatchNorms(s.bns, cycles, &s.calib, func() { runBatches(m, ds, r.BNCalibBatches) })
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

// build fills the table from the module tree: every module in walk
// order with its path, one site per quantizable input or output that
// any recipe can quantize, the first-conv/last-linear candidates and
// the BatchNorms.
func (s *Sites) build(root nn.Module) {
	haveConv := false
	nn.Walk(root, func(path string, mod nn.Module) {
		lo := len(s.targets)
		add := func(t target) { s.targets = append(s.targets, t) }
		switch mod.(type) {
		case *nn.Linear, *nn.Conv2d:
			if _, ok := mod.(*nn.Conv2d); ok && !haveConv {
				s.firstConv, haveConv = path, true
			}
			p := mod.(nn.Parametric)
			t := target{kind: mod.Kind(), qs: mod.(nn.Quantizable).Q(),
				weight: p.WeightTensor(), wgtDim: p.OutChannelDim()}
			if t.linear, _ = mod.(*nn.Linear); t.linear != nil {
				s.lastLinear = path
			}
			add(t)
		case *nn.Embedding, *nn.EmbeddingBag:
			// Standard scheme: weight-only; extended also quantizes
			// the gathered output tensor.
			p := mod.(nn.Parametric)
			add(target{kind: mod.Kind(), qs: mod.(nn.Quantizable).Q(),
				weight: p.WeightTensor(), wgtDim: p.OutChannelDim(), output: true, embedding: true})
		case *nn.LayerNorm, *nn.RMSNorm, *nn.GroupNorm, *nn.BatchNorm2d:
			if bn, ok := mod.(*nn.BatchNorm2d); ok {
				s.bns = append(s.bns, bn)
			}
			add(target{kind: mod.Kind(), qs: mod.(nn.Quantizable).Q(), output: true, extOnly: true})
		case *nn.AddOp, *nn.MulOp, *nn.BatchMatMulOp:
			qa, qb := mod.(binaryOp).Operands()
			add(target{kind: mod.Kind(), qs: qa, extOnly: true})
			add(target{kind: mod.Kind(), qs: qb, extOnly: true})
		}
		s.order = append(s.order, siteEntry{path: path, lo: lo, hi: len(s.targets)})
	})
	// The slab no longer moves: bind each site's hooks to its record.
	for i := range s.targets {
		t := &s.targets[i]
		t.record = t.observeValues
		t.quantize = t.quantizeValues
	}
	s.active = make([]*target, 0, len(s.targets))
	s.weights = make(map[*tensor.Tensor][]float32)
	s.rounded = make(map[*tensor.Tensor]bool)
	s.builds++
}

// carveSmooth carves every Linear site's SmoothQuant buffers from two
// slabs.
func (s *Sites) carveSmooth() {
	n := 0
	for i := range s.targets {
		if l := s.targets[i].linear; l != nil {
			n += l.In
		}
	}
	f64 := make([]float64, 2*n)
	inv := make([]float32, n)
	off := 0
	for i := range s.targets {
		t := &s.targets[i]
		if t.linear == nil {
			continue
		}
		in := t.linear.In
		t.colMax = f64[2*off : 2*off+in : 2*off+in]
		t.smooth = f64[2*off+in : 2*off+2*in : 2*off+2*in]
		t.inv = inv[off : off+in : off+in]
		off += in
	}
	s.smoothCarved = true
}

// activate lists the sites recipe r quantizes on a model (isCNN: the
// model's IsCNN), reports the first/last exclusions it applies, and
// resets each listed site's per-call state.
func (s *Sites) activate(isCNN bool, r Recipe, rep *Report) []*target {
	// First conv / last linear exclusion (CNNs, standard scheme). Paths
	// are compared only when it applies: the root's path is "", like
	// an absent candidate's.
	exclude := isCNN && !r.QuantFirstLast
	if exclude {
		rep.FirstOp, rep.LastOp = s.firstConv, s.lastLinear
	}

	s.active = s.active[:0]
	for _, e := range s.order {
		if exclude && (e.path == s.firstConv || e.path == s.lastLinear) {
			rep.FallbackOps = append(rep.FallbackOps, e.path)
			continue
		}
		for i := e.lo; i < e.hi; i++ {
			t := &s.targets[i]
			if t.extOnly && !r.ExtendedOps {
				continue
			}
			t.obs, t.smoothing = nil, false
			s.active = append(s.active, t)
		}
	}
	return s.active
}

// observe wires the site's calibration hook for recipe r.
func (t *target) observe(r Recipe) {
	t.mm = MinMaxObserver{}
	t.obs = &t.mm
	if r.Calib != CalibMax {
		t.obs = NewObserver(r.Calib)
	}
	t.smoothing = !t.output && t.linear != nil && r.SmoothQuant
	if t.smoothing {
		clear(t.colMax)
	}
	if t.output {
		t.qs.ObserveOutput = t.record
	} else {
		t.qs.Observe = t.record
	}
}

// observeValues is the site's calibration hook: it feeds the observer
// and, on a smoothed site, the per-input-channel absmax.
func (t *target) observeValues(v []float32) {
	t.obs.Observe(v)
	if !t.smoothing {
		return
	}
	cm := t.colMax
	in := len(cm)
	for i, x := range v {
		a := math.Abs(float64(x))
		if a > cm[i%in] {
			cm[i%in] = a
		}
	}
}

// quantizeValues is the site's activation hook: it fake-quantizes the
// values with the site's quantizer, on a smoothed site after dividing
// them by the SmoothQuant divisors.
func (t *target) quantizeValues(dst, src []float32) {
	if t.smoothing {
		inv := t.inv
		in := len(inv)
		for i, v := range src {
			dst[i] = v * inv[i%in]
		}
		src = dst
	}
	t.act.Apply(dst, src)
}

// convert installs the site's final quantization hooks and rounds its
// weight, counting the hook in rep.
func (s *Sites) convert(t *target, r Recipe, rep *Report) {
	// SmoothQuant folding on Linear layers (before weight rounding).
	if t.smoothing {
		s.fold(t, r.SmoothAlpha)
	}

	// Weight rounding (once per tensor, even when shared/tied), in
	// place after the master is saved. E5M2 Direct rounds straight to
	// the FP8 grid with no scaling.
	if t.weight != nil && r.Wgt != FP32 && !s.rounded[t.weight] {
		s.rounded[t.weight] = true
		s.save(t.weight)
		if r.Approach == Direct && r.Wgt.IsFP8() {
			r.Wgt.Format().Codec().QuantizeSlice(t.weight.Data, t.weight.Data)
		} else {
			quantizeChannels(t.weight, t.wgtDim, r.Wgt)
		}
	}

	// Activation hooks.
	if r.Act == FP32 || t.embedding && !r.ExtendedOps {
		return
	}
	threshold, mn, mx := t.calibrated(r)
	t.act.Set(r, threshold, mn, mx)
	if t.smoothing {
		for j, v := range t.smooth {
			t.inv[j] = float32(1 / v)
		}
	}
	if t.output {
		t.qs.Output = t.quantize
	} else {
		t.qs.Input = t.quantize
	}
	rep.QuantizedOps[t.kind]++
}

// calibrated resolves the threshold and range for a static target.
func (t *target) calibrated(r Recipe) (threshold, mn, mx float64) {
	if t.obs == nil {
		return 0, 0, 0
	}
	if r.Calib == CalibMax {
		// No threshold search, so no trial quantizer to build.
		threshold = t.obs.AbsMax()
	} else {
		act := r.Act
		threshold = CalibratedThreshold(t.obs, r.Calib, func(th float64) Quantizer {
			if act == INT8 {
				return fp8.NewInt8Symmetric(th)
			}
			return NewScaledFP8(act.Format(), th)
		})
	}
	mn, mx = t.obs.Range()
	if t.smoothing {
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

// fold folds the site's per-channel smoothing scales into its Linear
// weight (W[:, j] *= s_j) and leaves the divisors applied to the
// activation in t.smooth. s_j = actMax_j^alpha / wMax_j^(1-alpha), the
// SmoothQuant migration.
func (s *Sites) fold(t *target, alpha float64) {
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.5
	}
	l, colMax, sm := t.linear, t.colMax, t.smooth
	in, out := l.In, l.Out
	// s_j starts as the input channel's weight absmax (over output
	// rows) and becomes its divisor in place.
	clear(sm)
	for o := 0; o < out; o++ {
		row := l.W.Data[o*in : (o+1)*in]
		for j, v := range row {
			a := math.Abs(float64(v))
			if a > sm[j] {
				sm[j] = a
			}
		}
	}
	for j, wMax := range sm {
		if colMax[j] == 0 || wMax == 0 {
			sm[j] = 1
			continue
		}
		v := math.Pow(colMax[j], alpha) / math.Pow(wMax, 1-alpha)
		if v < 1e-5 {
			v = 1e-5
		} else if v > 1e5 {
			v = 1e5
		}
		sm[j] = v
	}
	s.save(l.W)
	for o := 0; o < out; o++ {
		row := l.W.Data[o*in : (o+1)*in]
		for j := range row {
			row[j] *= float32(sm[j])
		}
	}
}
