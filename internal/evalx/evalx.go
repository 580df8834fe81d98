// Package evalx runs the teacher-is-truth evaluation protocol: for
// each model the FP32 network's outputs define ground truth, a recipe
// is applied with internal/quant, and the quantized model's agreement
// with the reference is its accuracy. The paper's pass criterion —
// relative accuracy loss ≤ 1% versus FP32 — then applies directly.
package evalx

import (
	"math"

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
	runEvalSplit(net, func(out *tensor.Tensor) {
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

// runEvalSplit runs the eval split [EvalStart, EvalEnd) through net in
// batch order, handing each batch's output to f.
func runEvalSplit(net *models.Network, f func(out *tensor.Tensor)) {
	for b := EvalStart; b < EvalEnd; b++ {
		f(net.Run(net.Data.Batch(b)))
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

// AccuracyAgainst measures the current model state against a reference
// computed earlier with ComputeReference.
func AccuracyAgainst(net *models.Network, ref Reference) float64 {
	if net.Eval == models.Argmax {
		// Each batch's rows are compared as they arrive, at their
		// running offset into the reference.
		i, kept, hit := 0, 0, 0
		runEvalSplit(net, func(out *tensor.Tensor) {
			cols := out.Shape[out.Rank()-1]
			for r := 0; r < out.Len()/cols; r, i = r+1, i+1 {
				if ref.Keep != nil && !ref.Keep[i] {
					continue
				}
				kept++
				if data.Argmax(out.Data[r*cols:(r+1)*cols]) == ref.Labels[i] {
					hit++
				}
			}
		})
		if kept == 0 {
			return 0
		}
		return float64(hit) / float64(kept)
	}
	var scores []float32
	runEvalSplit(net, func(out *tensor.Tensor) { scores = append(scores, out.Data...) })
	a := make([]float64, len(scores))
	bb := make([]float64, len(scores))
	for i := range scores {
		a[i] = float64(scores[i])
		bb[i] = float64(ref.Scores[i])
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
	return EvaluateWithRef(net, base, paperDefaults, ComputeReference(net))
}

// EvaluateWithRef is Evaluate with a precomputed FP32 reference,
// letting callers amortize the reference pass across recipes.
func EvaluateWithRef(net *models.Network, base quant.Recipe, paperDefaults bool, ref Reference) Result {
	r := base
	if paperDefaults {
		r = PaperRecipe(base, net)
	}
	h := quant.Quantize(net, net.Data, r)
	acc := AccuracyAgainst(net, ref)
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
