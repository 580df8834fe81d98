// Package models is the reproduction's model zoo: 75 scaled-down but
// structurally faithful network architectures spanning the paper's
// evaluation domains (image classification/segmentation/detection,
// text classification, generative language modeling, machine
// translation, summarization, speech, recommendation, diffusion).
//
// Checkpoints are unavailable offline, so weights are synthesized with
// per-channel-varied fan-in scaling (normal, precision-bound — Figure 3
// right panel) and NLP models inject the LayerNorm-amplified sparse
// channel outliers that make INT8 activation quantization fail
// (Figure 3 left panel, Section 2). The evaluation is teacher-is-truth
// (README, "Evaluation protocol"): the FP32 network defines the labels.
package models

import (
	"fmt"
	"math"
	"sort"

	"fp8quant/internal/data"
	"fp8quant/internal/nn"
	"fp8quant/internal/quant"
	"fp8quant/internal/tensor"
)

// Domain buckets models the way Table 2 groups pass rates.
type Domain int

// Evaluation domains.
const (
	CV Domain = iota
	NLP
	Audio
	RecSys
)

// String names the domain.
func (d Domain) String() string {
	switch d {
	case CV:
		return "CV"
	case NLP:
		return "NLP"
	case Audio:
		return "Audio"
	case RecSys:
		return "RecSys"
	}
	return "?"
}

// Info is the registry metadata of a model.
type Info struct {
	// Name matches the paper's naming (lower-case family_variant).
	Name string
	// Domain is the Table 2 bucket.
	Domain Domain
	// Task names the simulated dataset/task.
	Task string
	// SizeMB is the simulated checkpoint size of the real model, used
	// for the Figure 5 size buckets.
	SizeMB float64
	// IsCNN enables the first/last-operator FP32 exception.
	IsCNN bool
	// HasBN/HasLN describe normalization content (Figure 7 selection,
	// extended-scheme coverage).
	HasBN, HasLN bool
	// OutlierRatio is the magnitude ratio of the model's activation
	// outlier channels versus bulk activations (0 = no outliers).
	// NLP transformers exhibit 20-60x; a few pathological models
	// (Funnel-style) exceed 300x.
	OutlierRatio float64
}

// SizeClass returns the Figure 5 bucket for the model's size:
// tiny (<=32MB), small (32-384], medium (384-512], large (>512).
func (i Info) SizeClass() string {
	switch {
	case i.SizeMB <= 32:
		return "tiny"
	case i.SizeMB <= 384:
		return "small"
	case i.SizeMB <= 512:
		return "medium"
	default:
		return "large"
	}
}

// EvalKind selects how teacher-is-truth accuracy is measured.
type EvalKind int

// Evaluation kinds: Argmax measures prediction agreement with the FP32
// reference (classification tasks); Score measures Pearson correlation
// of raw outputs (regression/generation-quality tasks like STS-B,
// DLRM CTR and denoiser outputs).
const (
	Argmax EvalKind = iota
	Score
)

// Network is a built model: the module tree, its forward function and
// its data source. It implements quant.Model.
type Network struct {
	Meta Info
	root nn.Module
	// fwd runs the model on a sample, carving from a (nil: the heap).
	fwd func(a *tensor.Arena, s data.Sample) *tensor.Tensor
	// Data generates calibration and evaluation batches.
	Data data.Dataset
	// Classes is the logit dimensionality of the output.
	Classes int
	// Eval selects the agreement metric.
	Eval EvalKind
	// plan, when installed, lends Run its forward arena (byte-identical
	// math, no steady-state allocation) and Quantize its cell arena.
	plan *nn.Plan
	// sites is the quantization-site table every Quantize of this
	// network reuses; it lives and is dropped with the network.
	sites quant.Sites
}

// Root implements quant.Model.
func (n *Network) Root() nn.Module { return n.root }

// IsCNN implements quant.Model.
func (n *Network) IsCNN() bool { return n.Meta.IsCNN }

// Plannable reports whether the network's forward can run under an
// execution plan. Every zoo network can.
//
//fp8vet:ignore unused bench/cellpath.go calls it
func (n *Network) Plannable() bool { return true }

// InstallPlan routes Run through p's forward arena and Quantize's
// weight masters through its cell arena; installing nil restores the
// unplanned path. A Handle carved from p must be released before p
// serves another network. Outputs of a planned Run are valid only
// until the next Run — Clone to retain.
func (n *Network) InstallPlan(p *nn.Plan) { n.plan = p }

// CellArena implements quant.Model: the installed plan's cell arena,
// or nil (the heap) when the network runs unplanned.
func (n *Network) CellArena() *tensor.Arena { return n.plan.Cell() }

// Sites implements quant.Model.
func (n *Network) Sites() *quant.Sites { return &n.sites }

// Run implements quant.Model.
func (n *Network) Run(s data.Sample) *tensor.Tensor {
	return n.fwd(n.plan.Begin(), s)
}

// Builder constructs a Network deterministically from a seed.
type Builder func(seed uint64) *Network

// registry maps model names to builders, populated by init() in the
// per-family files.
var registry = map[string]Builder{}
var registryInfo = map[string]Info{}

// register adds a model to the zoo.
func register(info Info, b Builder) {
	if _, dup := registry[info.Name]; dup {
		panic(fmt.Sprintf("models: duplicate registration %q", info.Name))
	}
	registry[info.Name] = b
	registryInfo[info.Name] = info
}

// Names returns all registered model names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// NamesByDomain returns the sorted names in a domain.
func NamesByDomain(d Domain) []string {
	var out []string
	for _, n := range Names() {
		if registryInfo[n].Domain == d {
			out = append(out, n)
		}
	}
	return out
}

// InfoFor returns the registry metadata for name.
func InfoFor(name string) (Info, bool) {
	i, ok := registryInfo[name]
	return i, ok
}

// Build constructs the named model with a deterministic per-name seed.
// Its Data generates each batch once per network (batches.go), and
// BatchNorm networks come with warmed statistics (warm.go): the first
// Build of a model in a process runs the warm-up, later ones copy it.
// The network comes back unplanned: Build is BuildOn with a fresh plan,
// uninstalled before it returns.
func Build(name string) (*Network, error) {
	n, err := BuildOn(name, nn.NewPlan(nil))
	if err != nil {
		return nil, err
	}
	n.InstallPlan(nil)
	return n, nil
}

// BuildOn is Build with p installed on the network it returns: the
// first build of a model in a process runs its BatchNorm warm-up under
// p, so a caller that goes on to run the network on p (a sweep cell)
// finds the warm-up's chunks already there.
func BuildOn(name string, p *nn.Plan) (*Network, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown model %q", name)
	}
	n := b(nameSeed(name))
	n.InstallPlan(p)
	n.Data = &memoDataset{inner: n.Data, batches: map[int]data.Sample{}}
	warmMemoized(n, func(n *Network) { WarmBatchNorms(n, warmBatches) })
	return n, nil
}

// ClearMemo drops the memoized BatchNorm warm-ups, so the next Build
// of each model runs as in a new process.
func ClearMemo() {
	warmMemo.Range(func(k, _ any) bool {
		warmMemo.Delete(k)
		return true
	})
}

// nameSeed derives a stable seed from the model name (FNV-1a).
func nameSeed(name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// ---- weight initialization helpers ----

// initLinear fills a Linear with fan-in-scaled normal weights whose
// per-output-channel std varies (log-uniform 0.5x-2x), making
// per-channel weight scaling consequential as in real checkpoints.
func initLinear(l *nn.Linear, r *tensor.RNG) {
	base := kaiming(l.In)
	for o := 0; o < l.Out; o++ {
		std := base * chanSpread(r)
		for i := 0; i < l.In; i++ {
			l.W.Data[o*l.In+i] = float32(std * r.Norm())
		}
		l.B[o] = float32(0.01 * r.Norm())
	}
}

// initConv fills a Conv2d similarly (per-output-filter spread).
func initConv(c *nn.Conv2d, r *tensor.RNG) {
	fanIn := (c.InC / c.Groups) * c.KH * c.KW
	base := kaiming(fanIn)
	per := c.W.Len() / c.OutC
	for o := 0; o < c.OutC; o++ {
		std := base * chanSpread(r)
		for i := 0; i < per; i++ {
			c.W.Data[o*per+i] = float32(std * r.Norm())
		}
		c.B[o] = float32(0.01 * r.Norm())
	}
}

// initEmbedding fills an embedding table with N(0, 0.5) rows — wider
// than projection weights, as in trained token embeddings.
func initEmbedding(w *tensor.Tensor, r *tensor.RNG) {
	w.FillNormal(r, 0, 0.5)
}

// kaiming returns sqrt(2/fanIn).
func kaiming(fanIn int) float64 {
	if fanIn <= 0 {
		fanIn = 1
	}
	return math.Sqrt(2 / float64(fanIn))
}

// chanSpread draws a log-uniform factor in [0.5, 2].
func chanSpread(r *tensor.RNG) float64 {
	return math.Exp2(r.Uniform(-1, 1))
}

// spikeGammas plants sparse outlier channels in a LayerNorm's gamma,
// reproducing the LayerNorm-amplified activation outliers of
// transformer models (Wei et al. 2022): nSpikes channels get |gamma| =
// ratio instead of ~1.
func spikeGammas(gamma []float32, r *tensor.RNG, nSpikes int, ratio float64) {
	for i := range gamma {
		gamma[i] = float32(1 + float64(0.1*r.Norm()))
	}
	for k := 0; k < nSpikes; k++ {
		j := r.Intn(len(gamma))
		s := ratio * (0.8 + float64(0.4*r.Float64()))
		if r.Float64() < 0.5 {
			s = -s
		}
		gamma[j] = float32(s)
	}
}
