package models_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	"fp8quant/internal/data"
	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
	"fp8quant/internal/nn"
	"fp8quant/internal/quant"
	"fp8quant/internal/tensor"
	"fp8quant/internal/tensor/kernels"
)

// bitEqual compares tensors bit-for-bit (NaN-safe, distinguishes ±0 —
// stricter than float equality, as the plan contract demands).
func bitEqual(a, b *tensor.Tensor) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// rows returns rows [i, j) of t's leading dimension as a view sharing
// t's data: one sample's slice of a batch, or its block of output rows.
func rows(t *tensor.Tensor, i, j int) *tensor.Tensor {
	n := t.Len() / t.Shape[0]
	shape := append([]int{j - i}, t.Shape[1:]...)
	return tensor.FromSlice(t.Data[i*n:j*n], shape...)
}

func build(t *testing.T, name string) *models.Network {
	t.Helper()
	net, err := models.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// quantize quantizes net with base's PaperRecipe: SmoothQuant on
// static NLP and audio quantization, BatchNorm calibration on CV models
// with BatchNorm. A planned network calibrates planned, so its
// observers and quantized input copies run inside the forwards' arena
// scopes.
func quantize(net *models.Network, base quant.Recipe) *quant.Handle {
	return quant.Quantize(net, net.Data, evalx.PaperRecipe(base, net))
}

// e4m3 quantizes net with the static E4M3 PaperRecipe.
func e4m3(net *models.Network) *quant.Handle {
	return quantize(net, quant.StandardFP8(quant.E4M3))
}

// samples returns up to three of net's batches.
func samples(net *models.Network) []data.Sample {
	out := make([]data.Sample, min(3, net.Data.Batches()))
	for i := range out {
		out[i] = net.Data.Batch(i)
	}
	return out
}

// zooStages are the outputs TestPlannedForwardBitIdentical digests per
// model, in the order it computes them.
var zooStages = []string{"fp32", "e4m3", "e4m3-dynamic", "int8"}

// outputDigest is a running sha256 over forward outputs: each tensor's
// shape, then its float32 bits, little-endian.
type outputDigest struct {
	h   hash.Hash
	buf []byte
}

func newOutputDigest() *outputDigest { return &outputDigest{h: sha256.New()} }

func (d *outputDigest) add(x *tensor.Tensor) {
	d.buf = d.buf[:0]
	for _, n := range x.Shape {
		d.buf = binary.LittleEndian.AppendUint32(d.buf, uint32(n))
	}
	for _, v := range x.Data {
		d.buf = binary.LittleEndian.AppendUint32(d.buf, math.Float32bits(v))
	}
	d.h.Write(d.buf)
}

func (d *outputDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// zooGolden pins the zoo's outputs: the digests of
// testdata/zoo_golden.json under the active variant's "GOARCH/variant"
// key, keyed "model/stage". Every digest a subtest computes goes
// through record; with no key for this host, the digests are logged at
// the end instead of compared.
type zooGolden struct {
	key    string
	want   map[string]string
	pinned bool

	mu  sync.Mutex
	got map[string]string
}

func loadZooGolden(t *testing.T) *zooGolden {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "zoo_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(b, &all); err != nil {
		t.Fatalf("testdata/zoo_golden.json: %v", err)
	}
	g := &zooGolden{key: runtime.GOARCH + "/" + string(kernels.Active()), got: map[string]string{}}
	g.want, g.pinned = all[g.key]
	return g
}

func (g *zooGolden) record(t *testing.T, name, stage, digest string) {
	t.Helper()
	id := name + "/" + stage
	g.mu.Lock()
	g.got[id] = digest
	g.mu.Unlock()
	if !g.pinned {
		return
	}
	if want, ok := g.want[id]; !ok {
		t.Errorf("%s: no golden digest under %s (computed %s)", id, g.key, digest)
	} else if digest != want {
		t.Errorf("%s: digest %s, golden %s under %s", id, digest, want, g.key)
	}
}

// finish runs once every subtest is done: it logs the computed digests
// of an unpinned host and, when the whole zoo ran, reports golden
// digests no model computed.
func (g *zooGolden) finish(t *testing.T) {
	if !g.pinned {
		js, _ := json.MarshalIndent(g.got, "", "  ")
		t.Logf("testdata/zoo_golden.json has no %s digests; computed:\n%s", g.key, js)
		return
	}
	if len(g.got) != len(models.Names())*len(zooStages) {
		return
	}
	stale := []string{}
	for id := range g.want {
		if _, ok := g.got[id]; !ok {
			stale = append(stale, id)
		}
	}
	sort.Strings(stale)
	for _, id := range stale {
		t.Errorf("%s: golden digest for an output the test no longer computes", id)
	}
}

// TestPlannedForwardBitIdentical proves the plan contract on every zoo
// network: a planned forward is byte-for-byte the unplanned forward,
// over three cycles (so chunk reuse and scope release, not just the
// first forward, are exercised), in FP32 and after calibrating and
// quantizing both networks with the static E4M3 + SmoothQuant recipe.
// It then quantizes and runs the planned network with dynamic E4M3 and
// with INT8, and proves the batch memo's read-only contract: every
// memoized batch the two networks ran is bit-identical to a fresh
// generation. The outputs of each stage are also pinned: their sha256
// per model must equal testdata/zoo_golden.json's, so no refactor of
// an op moves any zoo model's outputs silently.
func TestPlannedForwardBitIdentical(t *testing.T) {
	golden := loadZooGolden(t)
	t.Cleanup(func() { golden.finish(t) })
	for _, name := range models.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ref, net := build(t, name), build(t, name)
			net.InstallPlan(nn.NewPlan(nil))
			ss := samples(ref)
			check := func(stage string) {
				d := newOutputDigest()
				want := make([]*tensor.Tensor, len(ss))
				for i, s := range ss {
					want[i] = ref.Run(s).Clone()
					d.add(want[i])
				}
				for cycle := 0; cycle < 3; cycle++ {
					for i, s := range ss {
						if !bitEqual(net.Run(s), want[i]) {
							t.Fatalf("%s: planned forward differs from unplanned (cycle %d batch %d)", stage, cycle, i)
						}
					}
				}
				golden.record(t, name, stage, d.sum())
			}
			check(zooStages[0])
			e4m3(ref)
			h := e4m3(net)
			check(zooStages[1])
			for i, base := range []quant.Recipe{
				quant.DynamicFP8(quant.E4M3),
				quant.StandardINT8(net.Meta.Domain != models.CV),
			} {
				h.Release()
				h = quantize(net, base)
				d := newOutputDigest()
				for _, s := range ss {
					d.add(net.Run(s))
				}
				golden.record(t, name, zooStages[2+i], d.sum())
			}
			for _, n := range []*models.Network{ref, net} {
				memo, fresh := models.MemoBatches(n)
				if len(memo) == 0 {
					t.Fatal("the network ran no memoized batch")
				}
				for i, s := range memo {
					if !models.SampleBitEqual(s, fresh[i]) {
						t.Fatalf("memoized batch %d differs from a fresh generation: a forward mutated its input", i)
					}
				}
			}
		})
	}
}

// TestPlanBatchedRowsMatchSingle is the batched-forward contract at zoo
// scale: for one model per builder family with a dense input, each row
// of a planned forward over a whole batch, quantized with the static
// E4M3 PaperRecipe, is bit-identical to an unplanned forward over that
// row's single-sample slice. Static scales make rows independent, so
// the batch dimension may fold into every GEMM's M dimension without
// moving a bit.
func TestPlanBatchedRowsMatchSingle(t *testing.T) {
	for _, name := range []string{
		"cifar_resnet20",       // CNN
		"deit_tiny",            // ViT
		"unet_carvana",         // UNet
		"wav2vec2_librispeech", // audio
	} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			net := build(t, name)
			e4m3(net)
			x := net.Data.Batch(0).X
			if x == nil || x.Shape[0] < 2 {
				t.Fatalf("batch 0 is not a dense batch of several samples")
			}
			want := make([]*tensor.Tensor, x.Shape[0])
			for i := range want {
				want[i] = net.Run(data.Sample{X: rows(x, i, i+1)}).Clone()
			}
			net.InstallPlan(nn.NewPlan(nil))
			defer net.InstallPlan(nil)
			got := net.Run(data.Sample{X: x})
			per := got.Shape[0] / len(want) // the UNet flattens pixels into rows
			for i, w := range want {
				if !bitEqual(rows(got, i*per, (i+1)*per), w) {
					t.Fatalf("row %d of the planned batch differs from its unplanned single-sample forward", i)
				}
			}
		})
	}
}

// TestPlanSteadyStateZeroAlloc checks the perf contract on every zoo
// network: once its first forward has appended the chunks it needs, a
// planned forward performs no heap allocation, in FP32 and quantized.
func TestPlanSteadyStateZeroAlloc(t *testing.T) {
	for _, name := range models.Names() {
		net := build(t, name)
		net.InstallPlan(nn.NewPlan(nil))
		s := net.Data.Batch(0)
		for _, stage := range []string{"fp32", "e4m3"} {
			if stage == "e4m3" {
				e4m3(net)
			}
			// AllocsPerRun adds one unmeasured forward: the first,
			// which may append chunks.
			if avg := testing.AllocsPerRun(3, func() { net.Run(s) }); avg != 0 {
				t.Errorf("%s %s: planned forward allocates %.1f times per run, want 0", name, stage, avg)
			}
		}
	}
}

// TestInstallPlanRestoresUnplanned checks that uninstalling a plan
// returns Run to the heap path with unchanged outputs.
func TestInstallPlanRestoresUnplanned(t *testing.T) {
	net := build(t, "cifar_resnet20")
	s := net.Data.Batch(0)
	want := net.Run(s).Clone()
	net.InstallPlan(nn.NewPlan(nil))
	net.Run(s)
	net.InstallPlan(nil)
	if !bitEqual(net.Run(s), want) {
		t.Fatal("uninstalling plan changed outputs")
	}
}
