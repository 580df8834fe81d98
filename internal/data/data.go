// Package data provides deterministic synthetic dataset generators,
// calibration-time augmentation transforms, and the evaluation metrics
// used across the paper's 200+ tasks (accuracy, F1, Matthews
// correlation, Pearson, FID, …).
//
// Real datasets (ImageNet, GLUE, LibriSpeech, Criteo, …) are not
// available in this offline reproduction; the evaluation is
// teacher-is-truth (README, "Evaluation protocol"): inputs come from
// these generators, and labels are defined by the FP32 model's own
// outputs, so the quantized model's "accuracy" is its agreement with
// the FP32 reference — the quantity the paper's pass-rate actually
// probes.
package data

import (
	"slices"

	"fp8quant/internal/tensor"
)

// Sample is one evaluation batch. Exactly one input field is set per
// modality; DLRM-style models use both X (dense features) and Bags
// (sparse categorical features).
type Sample struct {
	// X is a dense input: [N,C,H,W] for vision, [N,T,D] for audio
	// frames, [N,D] for tabular.
	X *tensor.Tensor
	// Tokens holds token-id sequences for NLP models.
	Tokens [][]int
	// Bags holds categorical id bags for EmbeddingBag models.
	Bags [][]int
}

// Dataset deterministically generates batches by index.
type Dataset interface {
	// Batch returns the i-th batch; the same index always returns the
	// same data. The returned Sample may be shared with other callers
	// (models.Build memoizes batches), so it must not be mutated.
	Batch(i int) Sample
	// BatchInto generates the i-th batch into s, byte for byte what
	// Batch(i) returns, reusing the storage s holds from an earlier
	// BatchInto of the same dataset: a caller streaming batches through
	// one Sample allocates only for the first. s must own its storage,
	// so it must not hold a Batch result.
	BatchInto(i int, s *Sample)
	// Batches returns how many batches the dataset provides.
	Batches() int
}

// ShapeX returns s.X resized to shape: the tensor s already holds if it
// has exactly that shape, else a new one, which s then holds. A reused
// tensor keeps its old values, so a generator must write every element.
func (s *Sample) ShapeX(shape ...int) *tensor.Tensor {
	if s.X == nil || !slices.Equal(s.X.Shape, shape) {
		s.X = tensor.New(shape...)
	}
	return s.X
}

// Len returns how many samples s holds.
func (s Sample) Len() int {
	switch {
	case s.X != nil:
		return s.X.Shape[0]
	case s.Tokens != nil:
		return len(s.Tokens)
	}
	return len(s.Bags)
}

// Alike returns a zero Sample of n samples with the per-sample
// geometry of s (its X sample shape, its token and bag widths), in
// storage of its own.
func (s Sample) Alike(n int) Sample {
	var out Sample
	if s.X != nil {
		shape := slices.Clone(s.X.Shape)
		shape[0] = n
		out.X = tensor.New(shape...)
	}
	if s.Tokens != nil {
		out.Tokens = idRows(nil, n, len(s.Tokens[0]))
	}
	if s.Bags != nil {
		out.Bags = idRows(nil, n, len(s.Bags[0]))
	}
	return out
}

// CopySample copies sample j of src into sample k of s, a Sample made
// by src.Alike.
func (s Sample) CopySample(k int, src Sample, j int) {
	if s.X != nil {
		per := len(s.X.Data) / s.X.Shape[0]
		copy(s.X.Data[k*per:(k+1)*per], src.X.Data[j*per:(j+1)*per])
	}
	if s.Tokens != nil {
		copy(s.Tokens[k], src.Tokens[j])
	}
	if s.Bags != nil {
		copy(s.Bags[k], src.Bags[j])
	}
}

// idRows returns rows resized to n capacity-capped windows of one slab
// of n*width ids: rows itself if it already has that geometry, else a
// new slab. An append to one row cannot reach its neighbour.
func idRows(rows [][]int, n, width int) [][]int {
	if len(rows) == n && (n == 0 || len(rows[0]) == width) {
		return rows
	}
	rows = make([][]int, n)
	slab := make([]int, n*width)
	for i := range rows {
		rows[i] = slab[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}

// ImageDataset generates structured synthetic images: a mixture of
// Gaussian blobs, oriented gradients, and pixel noise, giving conv
// networks spatially-correlated inputs with realistic activation
// statistics (precision-bound, Figure 3 centre panel).
type ImageDataset struct {
	N, C, H, W int
	NumBatches int
	Seed       uint64
	// Transform optionally augments each batch (see Augment*).
	Transform Transform
}

// Batches implements Dataset.
func (d *ImageDataset) Batches() int { return d.NumBatches }

// Batch implements Dataset.
func (d *ImageDataset) Batch(i int) Sample {
	var s Sample
	d.BatchInto(i, &s)
	return s
}

// BatchInto implements Dataset. A Transform allocates its output, which
// is copied into s.
func (d *ImageDataset) BatchInto(i int, s *Sample) {
	r := tensor.NewRNG(d.Seed + uint64(i)*0x9E37)
	x := s.ShapeX(d.N, d.C, d.H, d.W)
	type blob struct{ cy, cx, sig, amp float64 }
	var blobBuf [3]blob
	for n := 0; n < d.N; n++ {
		// 2-3 blobs per image.
		blobs := blobBuf[:2+r.Intn(2)]
		for b := range blobs {
			blobs[b] = blob{
				cy:  r.Uniform(0, float64(d.H)),
				cx:  r.Uniform(0, float64(d.W)),
				sig: r.Uniform(1, float64(d.H)/3),
				amp: r.Uniform(0.5, 2),
			}
		}
		gradAngle := r.Uniform(-1, 1)
		for c := 0; c < d.C; c++ {
			chScale := 0.5 + float64(0.5*r.Float64())
			for y := 0; y < d.H; y++ {
				for xx := 0; xx < d.W; xx++ {
					v := gradAngle * (float64(y) - float64(xx)) / float64(d.H)
					for _, b := range blobs {
						dy, dx := float64(y)-b.cy, float64(xx)-b.cx
						v += float64(b.amp * gauss2(dy, dx, b.sig))
					}
					v = float64(v*chScale) + float64(0.1*r.Norm())
					x.Set(float32(v), n, c, y, xx)
				}
			}
		}
	}
	if d.Transform != nil {
		// The transform gets its own copy of the generator, so r, which
		// every batch uses, does not escape to the heap.
		tr := new(tensor.RNG)
		*tr = *r
		copy(x.Data, d.Transform(x, tr).Data)
	}
	*s = Sample{X: x}
}

func gauss2(dy, dx, sig float64) float64 {
	d2 := (float64(dy*dy) + float64(dx*dx)) / (2 * sig * sig)
	if d2 > 8 {
		return 0
	}
	return expApprox(-d2)
}

// expApprox is a fast exp for the blob kernel (accuracy is irrelevant
// for data generation, determinism is not).
func expApprox(x float64) float64 {
	// 5th-order minimax-ish via repeated squaring of (1+x/32)^32.
	v := 1 + float64(x/32)
	if v < 0 {
		return 0
	}
	v *= v
	v *= v
	v *= v
	v *= v
	v *= v
	return v
}

// TokenDataset generates token-id sequences with Zipfian frequencies
// and local repetition structure, approximating natural-language token
// statistics for embedding/attention paths.
type TokenDataset struct {
	N, T       int // batch size, sequence length
	Vocab      int
	NumBatches int
	Seed       uint64
}

// Batches implements Dataset.
func (d *TokenDataset) Batches() int { return d.NumBatches }

// Batch implements Dataset. The N rows are capacity-capped windows of
// one slab, so an append to a row cannot reach its neighbour.
func (d *TokenDataset) Batch(i int) Sample {
	var s Sample
	d.BatchInto(i, &s)
	return s
}

// BatchInto implements Dataset.
func (d *TokenDataset) BatchInto(i int, s *Sample) {
	r := tensor.NewRNG(d.Seed + uint64(i)*0x5851)
	toks := idRows(s.Tokens, d.N, d.T)
	for _, seq := range toks {
		prev := r.Intn(d.Vocab)
		for t := range seq {
			if r.Float64() < 0.2 && t > 0 {
				seq[t] = prev // local repetition
				continue
			}
			seq[t] = zipf(r, d.Vocab)
			prev = seq[t]
		}
	}
	*s = Sample{Tokens: toks}
}

// zipf samples an id in [0, n) with p(k) ∝ 1/(k+2), cheap inverse-CDF.
func zipf(r *tensor.RNG, n int) int {
	// Rejection-free: walk harmonic CDF with a random threshold.
	u := r.Float64()
	h := 0.0
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / float64(k+2)
	}
	target := u * total
	for k := 0; k < n; k++ {
		h += 1 / float64(k+2)
		if h >= target {
			return k
		}
	}
	return n - 1
}

// TabularDataset generates dense feature vectors plus categorical bags
// for recommendation models (DLRM). A batch's bags are capacity-capped
// windows of one slab, like TokenDataset's rows.
type TabularDataset struct {
	N, DenseDim int
	Vocab       int
	BagSize     int
	NumBatches  int
	Seed        uint64
}

// Batches implements Dataset.
func (d *TabularDataset) Batches() int { return d.NumBatches }

// Batch implements Dataset.
func (d *TabularDataset) Batch(i int) Sample {
	var s Sample
	d.BatchInto(i, &s)
	return s
}

// BatchInto implements Dataset.
func (d *TabularDataset) BatchInto(i int, s *Sample) {
	r := tensor.NewRNG(d.Seed + uint64(i)*0xABCD)
	x := s.ShapeX(d.N, d.DenseDim)
	x.FillNormal(r, 0, 1)
	// Log-normal-ish heavy tail on a few dense features (counters).
	for n := 0; n < d.N; n++ {
		for j := 0; j < d.DenseDim/4; j++ {
			v := x.At(n, j)
			x.Set(v*v*sign(v), n, j)
		}
	}
	bags := idRows(s.Bags, d.N, d.BagSize)
	for _, bag := range bags {
		for k := range bag {
			bag[k] = zipf(r, d.Vocab)
		}
	}
	*s = Sample{X: x, Bags: bags}
}

func sign(v float32) float32 {
	if v < 0 {
		return -1
	}
	return 1
}

// AudioDataset generates waveform-like [N, 1, T] tensors: sums of
// sinusoid bursts plus noise, for the conv feature extractors of
// wav2vec2/HuBERT.
type AudioDataset struct {
	N, T       int
	NumBatches int
	Seed       uint64
}

// Batches implements Dataset.
func (d *AudioDataset) Batches() int { return d.NumBatches }

// Batch implements Dataset.
func (d *AudioDataset) Batch(i int) Sample {
	var s Sample
	d.BatchInto(i, &s)
	return s
}

// BatchInto implements Dataset.
func (d *AudioDataset) BatchInto(i int, s *Sample) {
	r := tensor.NewRNG(d.Seed + uint64(i)*0x7777)
	x := s.ShapeX(d.N, 1, d.T)
	var freqBuf, ampBuf [4]float64
	for n := 0; n < d.N; n++ {
		// 2-4 tones per waveform.
		nTones := 2 + r.Intn(3)
		freqs, amps := freqBuf[:nTones], ampBuf[:nTones]
		for k := range freqs {
			freqs[k] = r.Uniform(0.01, 0.4)
			amps[k] = r.Uniform(0.2, 1)
		}
		for t := 0; t < d.T; t++ {
			v := 0.05 * r.Norm()
			for k := range freqs {
				v += float64(amps[k] * sin(float64(freqs[k]*float64(t))))
			}
			x.Set(float32(v), n, 0, t)
		}
	}
	*s = Sample{X: x}
}

// sin is a Bhaskara-approximation sine on the wrapped phase; exactness
// is irrelevant for synthetic audio.
func sin(x float64) float64 {
	const twoPi = 6.283185307179586
	x -= float64(float64(int(x/twoPi)) * twoPi)
	if x < 0 {
		x += twoPi
	}
	neg := false
	if x > 3.141592653589793 {
		x -= 3.141592653589793
		neg = true
	}
	v := 16 * x * (3.141592653589793 - x) /
		(49.348022005446793 - float64(4*x*(3.141592653589793-x)))
	if neg {
		return -v
	}
	return v
}
