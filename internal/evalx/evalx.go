// Package evalx runs the teacher-is-truth evaluation protocol: for
// each model the FP32 network's outputs define ground truth, a recipe
// is applied with internal/quant, and the quantized model's agreement
// with the reference is its accuracy. The paper's pass criterion —
// relative accuracy loss ≤ 1% versus FP32 — then applies directly.
package evalx

import (
	"math"
	"slices"

	"fp8quant/internal/data"
	"fp8quant/internal/models"
	"fp8quant/internal/quant"
	"fp8quant/internal/tensor"
)

// Batch protocol: dataset batches [0, CalibBatches) feed calibration
// (and BatchNorm re-calibration); batches [EvalStart, EvalEnd) feed
// evaluation. The split prevents calibration from seeing eval data.
const (
	CalibBatches = 4
	EvalStart    = 8
	EvalEnd      = 32
)

// MarginKeepPct drops the most boundary-ambiguous fraction of eval
// samples: teacher-is-truth references come from random-weight (not
// trained) networks whose decision margins are uniformly small, while
// the real pretrained models the paper evaluates are confident on most
// inputs. Filtering to the top (100-MarginKeepPct)% of FP32 margins
// restores a trained-model-like margin distribution; see README,
// "Evaluation protocol".
const MarginKeepPct = 70.0

// Result is one (model, recipe) evaluation. Accuracy experiments fill
// the BaseAcc/QAcc/RelLoss/Pass quartet; experiments measuring other
// quantities (FID, beam-search divergence, MSE ablations) carry them
// as named Metrics instead. Results are serialized as-is by
// internal/resultstore, so every field must JSON round-trip exactly —
// keep NaN/Inf out of the float fields (mark failures via Err) — and
// the encoding must be byte-deterministic: two workers that compute
// the same cell must produce byte-identical store entries for
// Store.IngestCell to recognize as duplicates. Map-valued fields are
// safe (encoding/json sorts keys); do not add fields whose encoding
// depends on iteration or insertion order.
type Result struct {
	Model   string        `json:"model"`
	Domain  models.Domain `json:"domain"`
	Recipe  string        `json:"recipe"`
	BaseAcc float64       `json:"base_acc"`
	QAcc    float64       `json:"qacc"`
	RelLoss float64       `json:"rel_loss"`
	Pass    bool          `json:"pass"`
	// Metrics holds named non-accuracy measurements of the cell.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Err marks a cell that could not be evaluated (e.g. the model
	// failed to build). Renderers skip errored cells; the cache layer
	// never persists them.
	Err string `json:"err,omitempty"`
}

// Failed returns the error marker Result for a cell that could not run.
func Failed(model, recipe string, err error) Result {
	return Result{Model: model, Recipe: recipe, Err: err.Error()}
}

// Reference holds the FP32 ground truth of a model on its eval split.
type Reference struct {
	// Labels are per-sample argmax predictions (Argmax models).
	Labels []int
	// Keep marks the samples retained by the margin filter.
	Keep []bool
	// Scores are flattened raw outputs (Score models).
	Scores []float32
}

// ComputeReference runs the FP32 model over the eval split and applies
// the margin filter.
func ComputeReference(net *models.Network) Reference {
	var ref Reference
	var margins []float32
	var buf data.Sample
	stream(net, &buf, func(out *tensor.Tensor) {
		if net.Eval != models.Argmax {
			ref.Scores = append(ref.Scores, out.Data...)
			return
		}
		cols := out.Shape[out.Rank()-1]
		rows := out.Len() / cols
		if ref.Labels == nil {
			// Every eval batch has the first one's rows.
			n := rows * (EvalEnd - EvalStart)
			ref.Labels, margins = make([]int, 0, n), make([]float32, 0, n)
		}
		for r := 0; r < rows; r++ {
			label, margin := rowLabel(out.Data[r*cols : (r+1)*cols])
			ref.Labels = append(ref.Labels, label)
			margins = append(margins, margin)
		}
	})
	if len(margins) > 0 {
		thr := tensor.Percentile(margins, MarginKeepPct)
		ref.Keep = make([]bool, len(margins))
		for i, m := range margins {
			ref.Keep[i] = float64(m) >= thr
		}
	}
	return ref
}

// stream runs the eval split [EvalStart, EvalEnd) through net in batch
// order, generating each batch into buf (data.Dataset.BatchInto), and
// hands each batch's output to f. No batch of the split stays resident.
func stream(net *models.Network, buf *data.Sample, f func(out *tensor.Tensor)) {
	for b := EvalStart; b < EvalEnd; b++ {
		net.Data.BatchInto(b, buf)
		f(net.Run(*buf))
	}
}

// rowLabel returns a row's label, its argmax under data.Argmax's rule
// (the first of tied maxima; a leading NaN wins), and its margin, the
// top1-top2 logit gap (the top logit itself for a one-column row), in
// one pass.
func rowLabel(row []float32) (label int, margin float32) {
	best, second := float32(math.Inf(-1)), float32(math.Inf(-1))
	for j, v := range row {
		if v > row[label] {
			label = j
		}
		if v > best {
			second = best
			best = v
		} else if v > second {
			second = v
		}
	}
	if len(row) == 1 {
		second = 0
	}
	return label, best - second
}

// Split is one model's eval split as quantized evaluation reads it
// against the model's FP32 reference: a buffer the split's batches
// stream through and, once a row-independent evaluation of an Argmax
// model first asks for them, the samples with a kept reference row
// packed in sample order into batches of the split's batch size. It
// depends only on the model and its reference, so a harness session
// builds one per model next to its network and drops it with the
// network. A Split is not safe for concurrent use.
type Split struct {
	ref Reference
	// Forwarded counts what Accuracy has forwarded since the split was
	// made. It is out-of-band work accounting: no Result, store cell or
	// fingerprint reads it.
	Forwarded Work
	// buf is the stream buffer of the split's batches.
	buf data.Sample
	// packed reports that the kept set was built. kept holds its
	// batches and origin the split index of each of its samples, in
	// order; both are nil when every sample has a kept row.
	packed bool
	kept   []data.Sample
	origin []int
}

// Work counts forwarded samples and batches.
type Work struct {
	Samples, Batches int
}

// add counts batch b as forwarded.
func (w *Work) add(b data.Sample) {
	w.Samples += b.Len()
	w.Batches++
}

// NewSplit returns the split of the model whose FP32 reference is ref.
func NewSplit(ref Reference) *Split { return &Split{ref: ref} }

// AccuracyAgainst measures the current model state against a reference
// computed earlier with ComputeReference, on a split of its own, so a
// row-independent state packs the kept set afresh. A caller that
// evaluates many states of a model, such as a sweep worker, keeps one
// Split and calls its Accuracy instead.
func AccuracyAgainst(net *models.Network, ref Reference) float64 {
	return NewSplit(ref).Accuracy(net)
}

// Accuracy measures net's current state, as quant.Quantize left it,
// against the split's reference: for an Argmax model the fraction of
// kept reference rows whose argmax it reproduces, for a Score model the
// Pearson correlation of its outputs with the reference's (clamped at
// 0). While net's forward is row independent (quant.Sites.RowIndependent:
// FP32, Static and Direct recipes), an Argmax model forwards only the
// packed samples that have a kept row, and each kept row's bytes are
// those the full split's batch would give it. Otherwise, and for Score
// models, the full split streams through the buffer.
func (sp *Split) Accuracy(net *models.Network) float64 {
	if net.Eval != models.Argmax {
		return sp.score(net)
	}
	var t tally
	if net.Sites().RowIndependent() && sp.keptBatches(net) != nil {
		for _, b := range sp.kept {
			sp.count(&t, b, net.Run(b), sp.origin)
		}
	} else {
		stream(net, &sp.buf, func(out *tensor.Tensor) { sp.count(&t, sp.buf, out, nil) })
	}
	if t.kept == 0 {
		return 0
	}
	return float64(t.hit) / float64(t.kept)
}

// tally accumulates an Argmax evaluation: kept counts the kept
// reference rows compared, hit those whose argmax matched, and next the
// samples compared so far.
type tally struct{ next, kept, hit int }

// count compares the rows out computed from batch b with the reference
// rows of b's samples, and counts b as forwarded. b's samples are the
// split's samples t.next, t.next+1, ... or, with origin, the split's
// samples origin[t.next], origin[t.next+1], ...; each sample has the
// same number of rows.
func (sp *Split) count(t *tally, b data.Sample, out *tensor.Tensor, origin []int) {
	sp.Forwarded.add(b)
	cols := out.Shape[out.Rank()-1]
	rows := out.Len() / cols
	rps := rows / b.Len()
	for r := 0; r < rows; r++ {
		s := t.next + r/rps
		if origin != nil {
			s = origin[s]
		}
		i := s*rps + r%rps
		if sp.ref.Keep != nil && !sp.ref.Keep[i] {
			continue
		}
		t.kept++
		if data.Argmax(out.Data[r*cols:(r+1)*cols]) == sp.ref.Labels[i] {
			t.hit++
		}
	}
	t.next += b.Len()
}

// keptBatches returns the packed kept set, which its first call builds:
// it streams the split once and copies each sample with a kept
// reference row into the next packed batch. A model with several rows
// per sample (per-pixel outputs) packs every sample with any kept row;
// when that is every sample, the full split is the kept set and
// keptBatches returns nil, as it does for a reference without a keep
// mask.
func (sp *Split) keptBatches(net *models.Network) []data.Sample {
	if sp.packed || sp.ref.Keep == nil {
		return sp.kept
	}
	sp.packed = true
	net.Data.BatchInto(EvalStart, &sp.buf)
	n := sp.buf.Len()
	total := n * (EvalEnd - EvalStart)
	rps := len(sp.ref.Keep) / total
	var origin []int
	for s := 0; s < total; s++ {
		if slices.Contains(sp.ref.Keep[s*rps:(s+1)*rps], true) {
			origin = append(origin, s)
		}
	}
	if len(origin) == total {
		return nil
	}
	var cur data.Sample
	fill := 0
	for b, k := EvalStart, 0; k < len(origin); b++ {
		if b > EvalStart {
			net.Data.BatchInto(b, &sp.buf)
		}
		base := (b - EvalStart) * n
		for ; k < len(origin) && origin[k] < base+n; k++ {
			if fill == 0 {
				cur = sp.buf.Alike(min(n, len(origin)-k))
			}
			cur.CopySample(fill, sp.buf, origin[k]-base)
			if fill++; fill == cur.Len() {
				sp.kept = append(sp.kept, cur)
				fill = 0
			}
		}
	}
	sp.origin = origin
	return sp.kept
}

// score is Accuracy for a Score model over the full split.
func (sp *Split) score(net *models.Network) float64 {
	var scores []float32
	stream(net, &sp.buf, func(out *tensor.Tensor) {
		sp.Forwarded.add(sp.buf)
		scores = append(scores, out.Data...)
	})
	a := make([]float64, len(scores))
	bb := make([]float64, len(scores))
	for i := range scores {
		a[i] = float64(scores[i])
		bb[i] = float64(sp.ref.Scores[i])
	}
	p := data.Pearson(a, bb)
	if p < 0 {
		p = 0
	}
	return p
}

// PaperRecipe specializes a base recipe per the paper's per-domain
// settings: SmoothQuant (alpha 0.5) on static NLP/Audio quantization,
// BatchNorm calibration on CV models containing BatchNorm.
func PaperRecipe(base quant.Recipe, net *models.Network) quant.Recipe {
	r := base
	isNLPish := net.Meta.Domain == models.NLP || net.Meta.Domain == models.Audio
	if isNLPish && r.Approach == quant.Static {
		r = r.WithSmoothQuant(0.5)
	}
	if net.Meta.Domain == models.CV && net.Meta.HasBN {
		r = r.WithBNCalib(CalibBatches)
	}
	r.CalibBatches = CalibBatches
	return r
}

// Evaluate applies the recipe to the model, measures agreement, and
// restores the model. Set paperDefaults to apply PaperRecipe.
func Evaluate(net *models.Network, base quant.Recipe, paperDefaults bool) Result {
	return EvaluateOn(net, base, paperDefaults, NewSplit(ComputeReference(net)))
}

// EvaluateOn is Evaluate on the model's split, letting callers amortize
// the reference pass and the kept set across recipes.
func EvaluateOn(net *models.Network, base quant.Recipe, paperDefaults bool, sp *Split) Result {
	r := base
	if paperDefaults {
		r = PaperRecipe(base, net)
	}
	h := quant.Quantize(net, net.Data, r)
	acc := sp.Accuracy(net)
	h.Release()
	rl := data.RelativeLoss(1.0, acc)
	return Result{
		Model:   net.Meta.Name,
		Domain:  net.Meta.Domain,
		Recipe:  base.Name(),
		BaseAcc: 1.0,
		QAcc:    acc,
		RelLoss: rl,
		Pass:    data.Passes(1.0, acc),
	}
}

// PassRates aggregates Table 2-style pass percentages.
type PassRates struct {
	CV, NLP, All float64
	NCV, NNLP, N int
}

// AggregatePassRates buckets results: CV bucket is Domain CV; NLP
// bucket is Domain NLP plus Audio (language-adjacent transformer
// stacks, as the paper groups its non-CV workloads); All covers every
// result.
func AggregatePassRates(results []Result) PassRates {
	var pr PassRates
	for _, r := range results {
		pr.N++
		if r.Pass {
			pr.All++
		}
		switch r.Domain {
		case models.CV:
			pr.NCV++
			if r.Pass {
				pr.CV++
			}
		case models.NLP, models.Audio, models.RecSys:
			pr.NNLP++
			if r.Pass {
				pr.NLP++
			}
		}
	}
	if pr.NCV > 0 {
		pr.CV = pr.CV / float64(pr.NCV) * 100
	}
	if pr.NNLP > 0 {
		pr.NLP = pr.NLP / float64(pr.NNLP) * 100
	}
	if pr.N > 0 {
		pr.All = pr.All / float64(pr.N) * 100
	}
	return pr
}

// LossStats summarizes a loss distribution (Figure 4 / Figure 9's
// box-plot style variability view).
type LossStats struct {
	Mean, Std, Min, Max, Median, Q1, Q3 float64
	N                                   int
}

// ComputeLossStats reduces relative losses (in %) to summary stats.
func ComputeLossStats(losses []float64) LossStats {
	if len(losses) == 0 {
		return LossStats{}
	}
	f := make([]float32, len(losses))
	for i, v := range losses {
		f[i] = float32(v)
	}
	var s, s2 float64
	mn, mx := losses[0], losses[0]
	for _, v := range losses {
		s += v
		s2 += float64(v * v)
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	n := float64(len(losses))
	mean := s / n
	va := s2/n - float64(mean*mean)
	if va < 0 {
		va = 0
	}
	return LossStats{
		Mean: mean, Std: math.Sqrt(va), Min: mn, Max: mx,
		Median: tensor.Percentile(f, 50),
		Q1:     tensor.Percentile(f, 25),
		Q3:     tensor.Percentile(f, 75),
		N:      len(losses),
	}
}
