// Package quant implements the paper's primary contribution: a unified
// post-training FP8 quantization workflow (Figure 2) with a standard
// scheme (per-channel weight scaling, per-tensor activation scaling,
// max calibration, static quantization of Conv/Linear/Embedding, first
// and last convolution layers kept in FP32) and an extended scheme
// (expanded operator coverage, mixed FP8 formats, dynamic quantization,
// BatchNorm re-calibration, SmoothQuant) plus an accuracy-driven
// auto-tuner.
package quant

import (
	"math"

	"fp8quant/internal/fp8"
	"fp8quant/internal/tensor"
)

// Observer accumulates activation statistics during calibration and
// produces the calibrated range used to derive quantization scales.
type Observer interface {
	// Observe records a batch of activation values.
	Observe(values []float32)
	// Range returns the calibrated (min, max) of the observed data
	// after the observer's clipping policy.
	Range() (min, max float64)
	// AbsMax returns the calibrated maximum absolute value.
	AbsMax() float64
}

// MinMaxObserver tracks the raw running min/max — the paper's
// recommended "simple max scaling" which it found sufficient for E4M3
// and E3M4 outlier handling (Section 3).
type MinMaxObserver struct {
	min, max float64
	seen     bool
}

// NewMinMaxObserver returns an empty observer.
func NewMinMaxObserver() *MinMaxObserver { return &MinMaxObserver{} }

// Observe implements Observer.
func (o *MinMaxObserver) Observe(values []float32) {
	for _, v := range values {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		if !o.seen {
			o.min, o.max = f, f
			o.seen = true
			continue
		}
		if f < o.min {
			o.min = f
		}
		if f > o.max {
			o.max = f
		}
	}
}

// Range implements Observer.
func (o *MinMaxObserver) Range() (float64, float64) {
	if !o.seen {
		return 0, 0
	}
	return o.min, o.max
}

// AbsMax implements Observer.
func (o *MinMaxObserver) AbsMax() float64 {
	mn, mx := o.Range()
	return math.Max(math.Abs(mn), math.Abs(mx))
}

// PercentileObserver clips the range to a high percentile of the
// observed magnitudes, discarding extreme outliers. It keeps a bounded
// reservoir sample for the percentile estimate.
type PercentileObserver struct {
	// Pct is the percentile in (0, 100], e.g. 99.99.
	Pct       float64
	reservoir []float32
	rng       *tensor.RNG
	n         int
	mm        MinMaxObserver
}

// NewPercentileObserver returns an observer clipping at pct.
func NewPercentileObserver(pct float64) *PercentileObserver {
	return &PercentileObserver{Pct: pct, rng: tensor.NewRNG(0xCA11B)}
}

const reservoirCap = 1 << 15

// Observe implements Observer (reservoir sampling of |v|).
func (o *PercentileObserver) Observe(values []float32) {
	o.mm.Observe(values)
	for _, v := range values {
		a := v
		if a < 0 {
			a = -a
		}
		o.n++
		if len(o.reservoir) < reservoirCap {
			o.reservoir = append(o.reservoir, a)
		} else if j := o.rng.Intn(o.n); j < reservoirCap {
			o.reservoir[j] = a
		}
	}
}

// AbsMax implements Observer.
func (o *PercentileObserver) AbsMax() float64 {
	if len(o.reservoir) == 0 {
		return 0
	}
	return tensor.Percentile(o.reservoir, o.Pct)
}

// Range implements Observer: the clipped symmetric range.
func (o *PercentileObserver) Range() (float64, float64) {
	am := o.AbsMax()
	mn, mx := o.mm.Range()
	return math.Max(mn, -am), math.Min(mx, am)
}

// HistogramObserver maintains a fixed-bin histogram of magnitudes; the
// KL and MSE calibrators are built on it.
type HistogramObserver struct {
	Bins   int
	counts []float64
	width  float64
	mm     MinMaxObserver
	// buffered values seen before the width is pinned.
	pending []float32
}

// NewHistogramObserver returns an observer with the given bin count.
func NewHistogramObserver(bins int) *HistogramObserver {
	return &HistogramObserver{Bins: bins}
}

// Observe implements Observer. The first batch pins the histogram
// width at 1.25× its absmax; later batches clamp into the top bin
// (matching TensorRT-style calibrator behaviour).
func (o *HistogramObserver) Observe(values []float32) {
	o.mm.Observe(values)
	if o.counts == nil {
		o.pending = append(o.pending, values...)
		am := 0.0
		for _, v := range o.pending {
			a := math.Abs(float64(v))
			if a > am {
				am = a
			}
		}
		if am == 0 {
			return // wait for non-zero data
		}
		o.counts = make([]float64, o.Bins)
		o.width = am * 1.25 / float64(o.Bins)
		vals := o.pending
		o.pending = nil
		o.add(vals)
		return
	}
	o.add(values)
}

func (o *HistogramObserver) add(values []float32) {
	for _, v := range values {
		a := math.Abs(float64(v))
		b := int(a / o.width)
		if b >= o.Bins {
			b = o.Bins - 1
		}
		o.counts[b]++
	}
}

// AbsMax implements Observer (unclipped).
func (o *HistogramObserver) AbsMax() float64 { return o.mm.AbsMax() }

// Range implements Observer (unclipped).
func (o *HistogramObserver) Range() (float64, float64) { return o.mm.Range() }

// Quantizer abstracts a scalar quantize-dequantize rule so KL/MSE
// threshold searches work for both INT8 and FP8 targets.
type Quantizer interface {
	Quantize(x float64) float64
}

// scaledFP8 quantizes through an FP8 format with a pre-scale mapping
// threshold T onto the format's max value.
type scaledFP8 struct {
	f     fp8.Format
	scale float64 // multiply before encode
}

func (s scaledFP8) Quantize(x float64) float64 {
	return s.f.Quantize(x*s.scale) / s.scale
}

// NewScaledFP8 returns a Quantizer mapping |x| <= threshold onto the
// full encoding range of format f.
func NewScaledFP8(f fp8.Format, threshold float64) Quantizer {
	if threshold <= 0 {
		threshold = 1
	}
	return scaledFP8{f: f, scale: f.MaxValue() / threshold}
}

// KLThreshold searches for the clip threshold that minimizes the KL
// divergence between the observed magnitude distribution and its
// quantized counterpart under the given target grid (TensorRT-style
// entropy calibration, generalized to FP8 grids so that the Appendix
// A.1 / Figure 10 comparison can be reproduced).
func (o *HistogramObserver) KLThreshold(mk func(threshold float64) Quantizer) float64 {
	if o.counts == nil {
		return o.AbsMax()
	}
	bins := o.Bins
	best := math.Inf(1)
	bestT := o.AbsMax()
	// Candidate thresholds sweep the top 3/4 of the histogram.
	for i := bins / 4; i <= bins; i += bins / 64 {
		t := float64(i) * o.width
		// Reference distribution: clip everything above t into the
		// last kept bin.
		p := make([]float64, i)
		copy(p, o.counts[:i])
		for j := i; j < bins; j++ {
			p[i-1] += o.counts[j]
		}
		// Quantized distribution: push each kept bin centre through
		// the quantizer and re-accumulate mass at the quantized
		// positions (re-binned on the same grid).
		q := make([]float64, i)
		quant := mk(t)
		for j := 0; j < i; j++ {
			if p[j] == 0 {
				continue
			}
			c := (float64(j) + 0.5) * o.width
			qc := quant.Quantize(c)
			b := int(qc / o.width)
			if b < 0 {
				b = 0
			}
			if b >= i {
				b = i - 1
			}
			q[b] += p[j]
		}
		kl := tensor.KLDivergence(normalizeDist(p), normalizeDist(q))
		if kl < best {
			best = kl
			bestT = t
		}
	}
	return bestT
}

// MSEThreshold searches candidate clip thresholds for the one that
// minimizes the quantization MSE of the observed distribution.
func (o *HistogramObserver) MSEThreshold(mk func(threshold float64) Quantizer) float64 {
	if o.counts == nil {
		return o.AbsMax()
	}
	am := o.AbsMax()
	if am == 0 {
		return 0
	}
	best := math.Inf(1)
	bestT := am
	for _, frac := range []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1} {
		t := am * frac
		quant := mk(t)
		mse := 0.0
		total := 0.0
		for j, c := range o.counts {
			if c == 0 {
				continue
			}
			v := float64((float64(j) + 0.5) * o.width)
			d := quant.Quantize(v) - v
			mse += float64(c * d * d)
			total += c
		}
		if total > 0 {
			mse /= total
		}
		if mse < best {
			best = mse
			bestT = t
		}
	}
	return bestT
}

func normalizeDist(v []float64) []float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	out := make([]float64, len(v))
	if s == 0 {
		return out
	}
	for i, x := range v {
		out[i] = x / s
	}
	return out
}

// CalibMethod selects the range-calibration algorithm.
type CalibMethod int

// Supported calibration methods. The paper found Max sufficient for
// FP8; KL, MSE and Percentile are provided for the comparison studies
// (Appendix A.1).
const (
	CalibMax CalibMethod = iota
	CalibKL
	CalibMSE
	CalibPercentile
)

// String names the method.
func (c CalibMethod) String() string {
	switch c {
	case CalibMax:
		return "max"
	case CalibKL:
		return "kl"
	case CalibMSE:
		return "mse"
	case CalibPercentile:
		return "percentile"
	}
	return "unknown"
}

// NewObserver constructs the observer implementing the given method.
func NewObserver(m CalibMethod) Observer {
	switch m {
	case CalibKL, CalibMSE:
		return NewHistogramObserver(2048)
	case CalibPercentile:
		return NewPercentileObserver(99.99)
	default:
		return NewMinMaxObserver()
	}
}

// CalibratedThreshold resolves the final clip threshold for an
// observer under the given method and target quantizer family.
func CalibratedThreshold(o Observer, m CalibMethod, mk func(threshold float64) Quantizer) float64 {
	switch m {
	case CalibKL:
		if h, ok := o.(*HistogramObserver); ok {
			return h.KLThreshold(mk)
		}
	case CalibMSE:
		if h, ok := o.(*HistogramObserver); ok {
			return h.MSEThreshold(mk)
		}
	}
	return o.AbsMax()
}
