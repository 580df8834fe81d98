package main

import (
	"fmt"
	"math/rand"
	"sort"
)

// benchWorkers is the cell parallelism of every workload: the sweep
// executor's pool size, and the number of fleet worker processes. It
// equals nproc on the 2-vCPU host the bounds were measured on.
const benchWorkers = 2

// recipesPerModel is the length of the Table-2 recipe axis.
const recipesPerModel = 6

// cost is what one model's cold sweep (its six Table-2 cells through
// harness.RunGrid, 2 workers, fresh process) took on the reference
// host: the fastest window of 5 runs in seconds, the median peak RSS in
// MiB, and the Go heap MiB and objects allocated per cell, which repeat
// within 0.2%. Only the ratios matter: they steer the seeded draws.
type cost struct{ win, rss, alloc, mallocs float64 }

// cnnCost is the zoo's IsCNN models whose cells take at most ~0.7 s
// each; tokenCost is every NLP model plus DLRM. Measured on a 2-vCPU
// Xeon, avx2 tier.
var cnnCost = map[string]cost{
	"cifar_resnet20":        {2.73, 18.8, 77.49, 551159},
	"densenet121":           {3.53, 23.3, 97.10, 580609},
	"efficientnet_b0":       {3.39, 31.2, 197.02, 637958},
	"fcn_resnet50":          {2.50, 20.9, 47.41, 461701},
	"googlenet":             {0.56, 14.6, 21.25, 405030},
	"inception_v3":          {1.23, 16.1, 36.37, 492940},
	"peleenet":              {2.21, 19.9, 70.31, 549437},
	"regnet_y":              {4.03, 15.4, 98.15, 614454},
	"shufflenet_v2":         {1.17, 16.1, 53.73, 517957},
	"squeezenet":            {0.63, 14.0, 27.84, 489588},
	"stable_diffusion_unet": {1.24, 20.3, 11.79, 208410},
	"unet_carvana":          {2.15, 20.3, 44.71, 461374},
	"vgg11":                 {0.27, 13.7, 7.34, 208350},
	"vgg13":                 {0.66, 13.6, 7.53, 208400},
	"vgg16":                 {0.84, 13.7, 7.57, 208454},
	"yolov3":                {0.56, 14.5, 24.02, 517827},
}

var tokenCost = map[string]cost{
	"albert_sst2":         {0.283, 14.0, 31.75, 6741},
	"bart_xsum":           {0.948, 14.7, 107.15, 16372},
	"bert_base_cola":      {0.347, 13.4, 39.90, 6779},
	"bert_base_mrpc":      {0.344, 13.5, 39.91, 6786},
	"bert_base_sst2":      {0.365, 14.2, 39.92, 6793},
	"bert_base_stsb":      {0.367, 13.6, 39.91, 6752},
	"bert_large_cola":     {0.723, 14.2, 91.54, 9815},
	"bert_large_rte":      {0.738, 14.0, 91.56, 9831},
	"bloom_176b":          {1.034, 15.8, 120.81, 9914},
	"bloom_560m":          {0.372, 13.8, 43.47, 6850},
	"bloom_7b1":           {0.823, 15.1, 95.63, 9894},
	"camembert_xnli":      {0.362, 13.5, 39.91, 6786},
	"deberta_mnli":        {0.483, 14.0, 51.73, 6896},
	"dialogpt_reddit":     {0.382, 13.4, 43.49, 6860},
	"distilbert_mrpc":     {0.203, 13.2, 21.12, 4094},
	"distilbert_sst2":     {0.178, 13.2, 21.12, 4095},
	"dlrm_criteo":         {0.013, 12.4, 0.84, 8428},
	"electra_sst2":        {0.279, 14.0, 31.75, 6742},
	"ernie_sst2":          {0.365, 13.8, 39.92, 6790},
	"flaubert_cls":        {0.340, 13.6, 39.92, 6792},
	"funnel_mrpc":         {0.302, 14.8, 39.92, 6794},
	"gpt2_wikitext":       {0.351, 14.1, 43.49, 6853},
	"gpt_neo_lambada":     {0.393, 14.1, 43.49, 6856},
	"llama_13b":           {0.771, 16.3, 132.16, 10934},
	"llama_65b":           {1.004, 16.7, 140.95, 10906},
	"llama_7b":            {0.740, 15.6, 111.10, 10936},
	"longformer_mrpc":     {0.351, 13.9, 39.92, 6800},
	"marianmt_enro":       {1.037, 15.4, 107.14, 16392},
	"mbart_enro":          {1.107, 16.1, 137.37, 16627},
	"minilm_sst2":         {0.362, 13.4, 31.75, 6742},
	"mobilebert_sst2":     {0.341, 13.6, 31.75, 6746},
	"opt_lambada":         {0.415, 13.4, 43.49, 6854},
	"pegasus_samsum":      {1.279, 15.8, 137.35, 16633},
	"prophetnet_gigaword": {1.208, 15.3, 137.38, 16642},
	"roberta_mrpc":        {0.375, 14.0, 39.92, 6786},
	"t5_small_cnndm":      {0.902, 14.5, 107.13, 16380},
	"tinybert_mrpc":       {0.174, 13.7, 19.80, 6675},
	"xlm_roberta_mrpc":    {0.421, 13.8, 51.71, 6891},
	"xlnet_sst2":          {0.359, 14.1, 39.92, 6789},
}

// workload is one benchmark input set: models drawn from a pool, each
// swept cold over the Table-2 recipes, either by the local executor or
// by the sweep coordinator and a fleet of worker processes.
type workload struct {
	name  string
	pool  map[string]cost
	slots int
	// tol bounds how far a draw's predicted window, RSS, allocation and
	// malloc sums may stray from a slot-average draw's, so that the seed
	// does not move the metrics by itself. The 16-model CNN pool offers
	// few 5-model draws, so it needs a wider tolerance to keep several.
	tol   float64
	fleet bool
}

var workloads = []workload{
	// Conv forwards and per-cell models.Build (BatchNorm warm-up)
	// dominate: a conv or build change shows here.
	{name: "sweep-cnn", pool: cnnCost, slots: 5, tol: 0.04},
	// Unplanned GEMM/attention forwards, allocation-heavy, builds of
	// ~3 ms: a conv or build change is predicted flat here.
	{name: "sweep-token", pool: tokenCost, slots: 16, tol: 0.02},
	// The sweep-token cells through the coordinator's lease/push/
	// IngestCell path and 2 worker processes instead of the local pool
	// and SaveCell.
	{name: "fleet-token", pool: tokenCost, slots: 16, tol: 0.02, fleet: true},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// slotsOf sorts the pool by window (name breaks ties) and cuts it into n
// contiguous groups whose sizes differ by at most one: each slot holds
// models of similar cost.
func slotsOf(pool map[string]cost, n int) [][]string {
	names := make([]string, 0, len(pool))
	for m := range pool {
		names = append(names, m)
	}
	sort.Slice(names, func(i, j int) bool {
		if pool[names[i]].win != pool[names[j]].win {
			return pool[names[i]].win < pool[names[j]].win
		}
		return names[i] < names[j]
	})
	out := make([][]string, n)
	for i := range out {
		out[i] = names[i*len(names)/n : (i+1)*len(names)/n]
	}
	return out
}

// draw picks one model per slot from the seed, redrawing until the
// pick's window, RSS, allocation and malloc sums are each within w.tol
// of a slot-average pick's. The same seed gives the same models, sorted.
func (w workload) draw(seed uint64) ([]string, error) {
	slots := slotsOf(w.pool, w.slots)
	var want cost
	for _, s := range slots {
		for _, m := range s {
			want = want.plus(w.pool[m], 1/float64(len(s)))
		}
	}
	near := func(got, want float64) bool { return got >= want*(1-w.tol) && got <= want*(1+w.tol) }
	rng := rand.New(rand.NewSource(int64(seed)))
	pick := make([]string, len(slots))
	for attempt := 0; attempt < 1<<20; attempt++ {
		var got cost
		for i, s := range slots {
			pick[i] = s[rng.Intn(len(s))]
			got = got.plus(w.pool[pick[i]], 1)
		}
		if near(got.win, want.win) && near(got.rss, want.rss) && near(got.alloc, want.alloc) && near(got.mallocs, want.mallocs) {
			sort.Strings(pick)
			return pick, nil
		}
	}
	return nil, fmt.Errorf("%s: no draw for seed %d meets the tolerance", w.name, seed)
}

// plus returns c + k·o.
func (c cost) plus(o cost, k float64) cost {
	return cost{c.win + k*o.win, c.rss + k*o.rss, c.alloc + k*o.alloc, c.mallocs + k*o.mallocs}
}
