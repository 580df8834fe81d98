// Command fp8serve is a saturation demo for compiled execution plans:
// it serves batched inference over a quantized zoo model with a
// configurable worker pool, each worker owning one plan (a scoped
// scratch arena), and reports p50/p99 service latency
// plus throughput per worker count.
//
//	fp8serve -model cifar_resnet20 -recipe e4m3 -workers 1,4
//	fp8serve -model vit_small -requests 512 -batch 8
//	fp8serve -model squeezenet -check=false   # skip the bit-identity audit
//	fp8serve -cpuprofile cpu.out -memprofile mem.out   # profile the run
//
// Requests are single samples drawn from the model's deterministic
// eval stream; workers coalesce them into fixed-size batches (the
// batch dimension folds into the GEMM M dimension) and run the planned
// forward with zero steady-state heap allocations. With -check (the
// default) every served row is compared bit-for-bit against an
// unplanned single-sample forward of the same quantized network — the
// demo doubles as an end-to-end proof that plans, arenas and batching
// leave the math untouched. Exits nonzero on any mismatch or on zero
// throughput.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fp8quant/internal/data"
	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
	"fp8quant/internal/nn"
	"fp8quant/internal/profile"
	"fp8quant/internal/quant"
	"fp8quant/internal/tensor"
)

func main() {
	model := flag.String("model", "cifar_resnet20", "zoo model to serve (must take a dense input)")
	recipe := flag.String("recipe", "e4m3", "quantization recipe: e5m2|e4m3|e3m4|int8|fp32")
	workers := flag.String("workers", "1,4", "comma-separated worker counts to sweep")
	requests := flag.Int("requests", 256, "requests to serve per worker count")
	batch := flag.Int("batch", 4, "requests coalesced per planned forward")
	warmup := flag.Int("warmup", 8, "warmup forwards per worker (excluded from stats)")
	check := flag.Bool("check", true, "bit-compare every served row against an unplanned forward")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memProfile := flag.String("memprofile", "", "write a heap profile to `file` after the run")
	flag.Parse()

	stopProfiles, err := profile.Start(*cpuProfile, *memProfile)
	if err == nil {
		err = run(*model, *recipe, *workers, *requests, *batch, *warmup, *check)
		stopProfiles()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fp8serve:", err)
		os.Exit(1)
	}
}

func run(model, recipeName, workerList string, requests, batch, warmup int, check bool) error {
	if batch < 1 || requests < 1 {
		return fmt.Errorf("batch and requests must be positive")
	}
	counts, err := parseWorkers(workerList)
	if err != nil {
		return err
	}

	ref, err := buildServing(model, recipeName)
	if err != nil {
		return err
	}
	pool := requestPool(ref)
	if len(pool) == 0 {
		return fmt.Errorf("model %s yields no dense requests", model)
	}
	var refOut []*tensor.Tensor
	if check {
		for _, req := range pool {
			refOut = append(refOut, ref.Run(data.Sample{X: req}).Clone())
		}
	}

	fmt.Printf("fp8serve: model=%s recipe=%s batch=%d requests=%d check=%v\n",
		model, recipeName, batch, requests, check)
	fmt.Printf("%8s  %9s  %9s  %9s  %13s\n", "workers", "p50(ms)", "p99(ms)", "req/s", "req/s/worker")

	audited := 0
	for _, w := range counts {
		res, err := serve(model, recipeName, pool, refOut, w, requests, batch, warmup)
		if err != nil {
			return err
		}
		fmt.Printf("%8d  %9.3f  %9.3f  %9.0f  %13.0f\n",
			w, res.p50.Seconds()*1e3, res.p99.Seconds()*1e3, res.throughput, res.throughput/float64(w))
		if res.throughput <= 0 {
			return fmt.Errorf("%d workers: zero throughput", w)
		}
		audited += res.rows
	}
	if check {
		// serve() already failed on any mismatch; this line makes the
		// audit visible in the smoke logs.
		fmt.Printf("bit-identity audit: %d/%d served rows identical to unplanned forwards\n", audited, audited)
	}
	return nil
}

// buildServing builds and quantizes one serving replica of the model.
// Quantization is deterministic, so every replica holds identical
// weights and produces identical bits.
func buildServing(model, recipeName string) (*models.Network, error) {
	net, err := models.Build(model)
	if err != nil {
		return nil, err
	}
	if s := net.Data.Batch(0); s.X == nil || s.Tokens != nil || s.Bags != nil {
		return nil, fmt.Errorf("model %s takes token or bag inputs; fp8serve serves dense-input models only", model)
	}
	base, err := parseRecipe(recipeName)
	if err != nil {
		return nil, err
	}
	if base != nil {
		r := evalx.PaperRecipe(*base, net)
		quant.Quantize(net, net.Data, r) // handle intentionally kept: serve quantized
	}
	return net, nil
}

func parseRecipe(name string) (*quant.Recipe, error) {
	var r quant.Recipe
	switch strings.ToLower(name) {
	case "fp32", "none":
		return nil, nil
	case "e5m2":
		r = quant.StandardFP8(quant.E5M2)
	case "e4m3":
		r = quant.StandardFP8(quant.E4M3)
	case "e3m4":
		r = quant.StandardFP8(quant.E3M4)
	case "int8":
		r = quant.StandardINT8(false)
	default:
		return nil, fmt.Errorf("unknown recipe %q (want e5m2|e4m3|e3m4|int8|fp32)", name)
	}
	return &r, nil
}

func parseWorkers(list string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// requestPool slices the model's eval batches into single-sample
// request tensors (row views — StackBatch copies when coalescing).
func requestPool(net *models.Network) []*tensor.Tensor {
	var pool []*tensor.Tensor
	batches := net.Data.Batches()
	if batches > 4 {
		batches = 4
	}
	for b := 0; b < batches; b++ {
		s := net.Data.Batch(b)
		for i := 0; i < s.X.Shape[0]; i++ {
			pool = append(pool, s.X.Slice0(i, i+1))
		}
	}
	return pool
}

type serveResult struct {
	p50, p99   time.Duration
	throughput float64 // requests per second over the measured window
	rows       int     // served rows bit-compared against the reference
}

// serve runs one worker-count configuration: nWorkers replicas, each
// with its own plan, pulling request batches off a shared counter.
func serve(model, recipeName string, pool []*tensor.Tensor, refOut []*tensor.Tensor,
	nWorkers, requests, batch, warmup int) (serveResult, error) {

	nBatches := (requests + batch - 1) / batch
	var next atomic.Int64
	var mismatches atomic.Int64
	lats := make([][]time.Duration, nWorkers)
	nets := make([]*models.Network, nWorkers)

	// Replica setup (excluded from the measured window): fresh build,
	// identical quantization, plan install + warmup to steady state.
	for w := 0; w < nWorkers; w++ {
		net, err := buildServing(model, recipeName)
		if err != nil {
			return serveResult{}, err
		}
		shape := append([]int{batch}, pool[0].Shape[1:]...)
		net.InstallPlan(nn.NewPlan(nil))
		wu := data.Sample{X: tensor.New(shape...)}
		for i := 0; i < warmup; i++ {
			net.Run(wu)
		}
		nets[w] = net
	}

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			net := nets[w]
			in := make([]*tensor.Tensor, batch)
			for {
				bi := int(next.Add(1)) - 1
				if bi >= nBatches {
					return
				}
				for j := 0; j < batch; j++ {
					in[j] = pool[(bi*batch+j)%len(pool)]
				}
				t0 := time.Now()
				out := net.Run(data.Sample{X: tensor.StackBatch(in)})
				lat := time.Since(t0)
				lats[w] = append(lats[w], lat)
				if refOut != nil {
					for j := 0; j < batch; j++ {
						if !bitEqual(out.Slice0(j, j+1), refOut[(bi*batch+j)%len(refOut)]) {
							mismatches.Add(1)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	for _, net := range nets {
		net.InstallPlan(nil)
	}
	if n := mismatches.Load(); n > 0 {
		return serveResult{}, fmt.Errorf("%d workers: %d served rows differ from the unplanned reference", nWorkers, n)
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res := serveResult{
		p50:        percentileDur(all, 50),
		p99:        percentileDur(all, 99),
		throughput: float64(nBatches*batch) / elapsed.Seconds(),
	}
	if refOut != nil {
		res.rows = nBatches * batch
	}
	return res, nil
}

// percentileDur picks the nearest-rank percentile of sorted latencies.
func percentileDur(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

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
