package harness

import (
	"errors"
	"fmt"

	"fp8quant/internal/data"
	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
	"fp8quant/internal/quant"
)

func init() {
	sweepSpec, runSweepCell := recipeGrid("table2-sweep", models.Names(), sweepRecipes)
	table3Spec, runTable3Cell := recipeGrid("table3", table3Models, table3Recipes)
	table5Spec, runTable5Cell := recipeGrid("table5", table5Models, table5Recipes)
	registerGrid("table2", "Table 2: workload pass rate", sweepSpec, runSweepCell, renderTable2)
	registerGrid("fig4", "Figure 4: accuracy-loss variability CV vs NLP", sweepSpec, runSweepCell, renderFig4)
	registerGrid("table3", "Table 3: representative model accuracy", table3Spec, runTable3Cell, renderAccuracyTable(
		"Table 3 reproduction: teacher-is-truth accuracy of representative models\n"+
			"(FP32 reference accuracy is 1.0 by construction; paper reports task metrics)."))
	registerGrid("fig5", "Figure 5: accuracy loss by model size", sweepSpec, runSweepCell, renderFig5)
	registerGrid("fig7", "Figure 7: BatchNorm calibration sample size and transform", fig7Spec, runFig7Cell, renderFig7)
	registerGrid("table5", "Table 5: single vs mixed FP8 formats", table5Spec, runTable5Cell, renderAccuracyTable(
		"Table 5 reproduction: single vs mixed FP8 formats (E4M3 activations +\n"+
			"E3M4 weights) on the paper's mixed-format study models."))
	registerGrid("table6", "Table 6: static vs dynamic quantization", table6Spec, runTable6Cell, renderTable6)
	registerGrid("fig9", "Figure 9: extended quantization recipes", fig9Spec, runFig9Cell, renderFig9)
	registerGrid("firstlast", "Section 4.3.1: quantizing first and last operators", firstLastSpec, runFirstLastCell, renderFirstLast)
}

// ---- the model cell ----

// evalModelCell evaluates the named model under recipe(net), with the
// paper's per-domain settings, against its FP32 reference, on the
// session's network of the model (withModelCell).
func evalModelCell(s *Session, name, label string, recipe func(*models.Network) quant.Recipe) evalx.Result {
	return withModelCell(s, name, label, func(net *models.Network, sp *evalx.Split) evalx.Result {
		return evalx.EvaluateOn(net, recipe(net), true, sp)
	})
}

// recipeColumn is one recipe column of a model×recipe grid. Its label
// becomes part of the persisted cell identity, so label and recipe
// live in one value and can never be reordered independently.
type recipeColumn struct {
	label  string
	recipe func(*models.Network) quant.Recipe
}

// recipeGrid declares the model×recipe grid id over the named models
// and the recipe columns cols, and returns its spec and cell runner.
func recipeGrid(id string, names []string, cols []recipeColumn) (func() GridSpec, func(Cell) evalx.Result) {
	labels := make([]string, len(cols))
	for i, c := range cols {
		labels[i] = c.label
	}
	spec := func() GridSpec {
		return GridSpec{ID: id, Axes: []Axis{
			{Name: "model", Values: names},
			{Name: "recipe", Values: labels},
		}}
	}
	cell := func(c Cell) evalx.Result {
		return evalModelCell(c.session, c.Values[0], c.Values[1], cols[c.Coords[1]].recipe)
	}
	return spec, cell
}

// renderAccuracyTable renders a model×recipe accuracy grid (Tables 3
// and 5): one row per fully evaluated model, with each column's
// quantized accuracy, under the caption text.
func renderAccuracyTable(text string) func(*Grid) *Report {
	return func(g *Grid) *Report {
		labels := g.Spec.Axes[1].Values
		tb := newTable(append([]string{"Model", "Task", "FP32"}, labels...)...)
		vals := map[string]float64{}
	rows:
		for mi, name := range g.Spec.Axes[0].Values {
			info, _ := models.InfoFor(name)
			row := []string{name, info.Task, "1.0000"}
			for ri := range labels {
				r := g.At(mi, ri)
				if r.Err != "" {
					continue rows
				}
				row = append(row, fmt.Sprintf("%.4f", r.QAcc))
			}
			tb.add(row...)
			for ri, label := range labels {
				vals[name+"_"+label] = g.At(mi, ri).QAcc
			}
		}
		return &Report{Text: text + "\n\n" + tb.String(), Values: vals}
	}
}

// ---- the shared Table-2 sweep grid (table2, fig4, fig5) ----

// sweepRecipes are the Table 2 columns. table2, fig4 and fig5 all
// declare the "table2-sweep" grid over every zoo model: because the
// grid id and axes are identical, the three experiments share memoized
// and persisted cells. Model weights derive from per-name seeds, so
// the experiment-level seed is constant. The INT8 column follows the
// paper: static on CV, dynamic on NLP-like workloads.
var sweepRecipes = []recipeColumn{
	{"E5M2 Direct", func(*models.Network) quant.Recipe { return quant.StandardFP8(quant.E5M2) }},
	{"E4M3 Static", func(*models.Network) quant.Recipe { return quant.StandardFP8(quant.E4M3) }},
	{"E4M3 Dynamic", func(*models.Network) quant.Recipe { return quant.DynamicFP8(quant.E4M3) }},
	{"E3M4 Static", func(*models.Network) quant.Recipe { return quant.StandardFP8(quant.E3M4) }},
	{"E3M4 Dynamic", func(*models.Network) quant.Recipe { return quant.DynamicFP8(quant.E3M4) }},
	{"INT8 Static CV | Dynamic NLP", func(net *models.Network) quant.Recipe {
		return quant.StandardINT8(net.Meta.Domain != models.CV)
	}},
}

// gridColumn returns the evaluable results of one recipe column,
// skipping cells whose model failed to build.
func gridColumn(g *Grid, ri int) []evalx.Result {
	nm := len(g.Spec.Axes[0].Values)
	col := make([]evalx.Result, 0, nm)
	for mi := 0; mi < nm; mi++ {
		if r := g.At(mi, ri); r.Err == "" {
			col = append(col, r)
		}
	}
	return col
}

func renderTable2(g *Grid) *Report {
	tb := newTable("Data Type / Approach", "Pass Rate (CV)", "Pass Rate (NLP)", "Pass Rate (All)")
	vals := map[string]float64{}
	for ri, label := range g.Spec.Axes[1].Values {
		pr := evalx.AggregatePassRates(gridColumn(g, ri))
		tb.add(label, pct(pr.CV), pct(pr.NLP), pct(pr.All))
		vals["cv_"+label] = pr.CV
		vals["nlp_"+label] = pr.NLP
		vals["all_"+label] = pr.All
	}
	return &Report{
		Text:   "Table 2 reproduction: workload pass rate (<=1% relative loss vs FP32).\n\n" + tb.String(),
		Values: vals,
	}
}

func renderFig4(g *Grid) *Report {
	// Figure 4 plots loss variability per format for CV and NLP:
	// E5M2, E4M3 (static), E3M4 (static), INT8.
	idx := map[string]int{"E5M2": 0, "E4M3": 1, "E3M4": 3, "INT8": 5}
	tb := newTable("format", "domain", "mean loss", "std", "median", "q1", "q3", "max")
	vals := map[string]float64{}
	for _, fmtName := range []string{"E5M2", "E4M3", "E3M4", "INT8"} {
		for _, dom := range []models.Domain{models.CV, models.NLP} {
			var losses []float64
			for _, r := range gridColumn(g, idx[fmtName]) {
				if r.Domain == dom {
					losses = append(losses, r.RelLoss*100)
				}
			}
			s := evalx.ComputeLossStats(losses)
			tb.add(fmtName, dom.String(),
				fmt.Sprintf("%.2f%%", s.Mean), fmt.Sprintf("%.2f", s.Std),
				fmt.Sprintf("%.2f%%", s.Median), fmt.Sprintf("%.2f%%", s.Q1),
				fmt.Sprintf("%.2f%%", s.Q3), fmt.Sprintf("%.2f%%", s.Max))
			vals[fmt.Sprintf("std_%s_%s", fmtName, dom)] = s.Std
			vals[fmt.Sprintf("mean_%s_%s", fmtName, dom)] = s.Mean
		}
	}
	return &Report{
		Text: "Figure 4 reproduction: distribution of accuracy loss per format and domain\n" +
			"(box-plot statistics; paper shows INT8 with the largest CV variability).\n\n" + tb.String(),
		Values: vals,
	}
}

func renderFig5(g *Grid) *Report {
	idx := map[string]int{"E5M2": 0, "E4M3": 1, "E3M4": 3, "INT8": 5}
	classes := []string{"tiny", "small", "medium", "large"}
	tb := newTable("domain", "size class", "format", "mean loss", "max loss", "n")
	vals := map[string]float64{}
	for _, dom := range []models.Domain{models.CV, models.NLP} {
		for _, sc := range classes {
			for _, f := range []string{"E5M2", "E4M3", "E3M4", "INT8"} {
				var losses []float64
				for _, r := range gridColumn(g, idx[f]) {
					info, _ := models.InfoFor(r.Model)
					if r.Domain == dom && info.SizeClass() == sc {
						losses = append(losses, r.RelLoss*100)
					}
				}
				if len(losses) == 0 {
					continue
				}
				s := evalx.ComputeLossStats(losses)
				tb.add(dom.String(), sc, f, fmt.Sprintf("%.2f%%", s.Mean),
					fmt.Sprintf("%.2f%%", s.Max), fmt.Sprintf("%d", s.N))
				vals[fmt.Sprintf("%s_%s_%s", dom, sc, f)] = s.Mean
			}
		}
	}
	return &Report{
		Text:   "Figure 5 reproduction: accuracy loss bucketed by model size class.\n\n" + tb.String(),
		Values: vals,
	}
}

// ---- table3 ----

// table3Models mirrors the representative sample of Table 3.
var table3Models = []string{
	"resnet50", "densenet121", "wav2vec2_librispeech", "dlrm_criteo",
	"bert_base_stsb", "bert_large_cola", "distilbert_mrpc",
	"bloom_7b1", "bloom_176b", "llama_65b",
}

// table3Recipes are the Table 3 columns.
var table3Recipes = []recipeColumn{
	{"E5M2", func(*models.Network) quant.Recipe { return quant.StandardFP8(quant.E5M2) }},
	{"E4M3", func(*models.Network) quant.Recipe { return quant.StandardFP8(quant.E4M3) }},
	{"E3M4", func(*models.Network) quant.Recipe { return quant.StandardFP8(quant.E3M4) }},
	{"INT8", func(net *models.Network) quant.Recipe {
		return quant.StandardINT8(net.Meta.Domain != models.CV)
	}},
}

// ---- fig7 ----

// fig7Models are BatchNorm CV models from the Figure 7 list (the
// cheaper half — the full list is available in the zoo but the single
// pass-rate protocol already covers it; see README, "Evaluation
// protocol").
var fig7Models = []string{
	"resnet18", "peleenet", "mobilenet_v2", "googlenet",
	"shufflenet_v2", "densenet121", "efficientnet_b0", "squeezenet",
}

// fig7Cfgs is the sample-size x transform calibration grid: {300, 3K,
// 10K} paper sample counts scaled down ~3x to match the zoo's
// scaled-down models (see README, "Evaluation protocol"), plus 3K with
// the inference transform.
var fig7Cfgs = []struct {
	label     string
	samples   int
	transform data.Transform
}{
	{"100 Samples + Training", 100, data.AugmentTraining},
	{"3.2K Samples + Training", 3200, data.AugmentTraining},
	{"1K Samples + Inference", 1000, data.AugmentInference},
	{"1K Samples + Training", 1000, data.AugmentTraining},
}

var errNoBatchNorm = errors.New("model has no BatchNorm")

func fig7Spec() GridSpec {
	labels := make([]string, len(fig7Cfgs))
	for i, c := range fig7Cfgs {
		labels[i] = c.label
	}
	return GridSpec{
		ID:   "fig7",
		Seed: 0xF167,
		Axes: []Axis{
			{Name: "model", Values: fig7Models},
			{Name: "calib", Values: labels},
		},
	}
}

func runFig7Cell(c Cell) evalx.Result {
	name, cfg := c.Values[0], fig7Cfgs[c.Coords[1]]
	return withModelCell(c.session, name, cfg.label, func(net *models.Network, sp *evalx.Split) evalx.Result {
		if !net.Meta.HasBN {
			return evalx.Failed(name, cfg.label, errNoBatchNorm)
		}
		// Batches of 16 images -> sample count / 16 BN batches.
		bnBatches := max(cfg.samples/16, 1)
		ds := &data.ImageDataset{N: 16, C: 3, H: 12, W: 12,
			NumBatches: bnBatches, Seed: 0xF167, Transform: cfg.transform}
		r := quant.StandardFP8(quant.E4M3)
		r.CalibBatches = evalx.CalibBatches
		h := quant.Quantize(net, ds, r.WithBNCalib(bnBatches))
		acc := sp.Accuracy(net)
		h.Release()
		loss := data.RelativeLoss(1.0, acc)
		return evalx.Result{
			Model: name, Domain: net.Meta.Domain, Recipe: cfg.label,
			BaseAcc: 1, QAcc: 1 - loss, RelLoss: loss, Pass: data.Passes(1.0, 1-loss),
		}
	})
}

func renderFig7(g *Grid) *Report {
	tb := newTable("model", fig7Cfgs[0].label, fig7Cfgs[1].label, fig7Cfgs[2].label, fig7Cfgs[3].label)
	vals := map[string]float64{}
	for mi, name := range fig7Models {
		row := []string{name}
		ok := true
		for ci := range fig7Cfgs {
			r := g.At(mi, ci)
			if r.Err != "" {
				ok = false
				break
			}
			row = append(row, fmt.Sprintf("%.2f%%", r.RelLoss*100))
		}
		// Values are written only for fully evaluated rows, so a model
		// dropped from the table never leaks a partial subset.
		if !ok {
			continue
		}
		tb.add(row...)
		for ci, cfg := range fig7Cfgs {
			vals[name+"_"+cfg.label] = g.At(mi, ci).RelLoss * 100
		}
	}
	return &Report{
		Text: "Figure 7 reproduction: accuracy loss after E4M3 quantization with BatchNorm\n" +
			"calibration at different sample sizes and transforms (lower is better).\n\n" + tb.String(),
		Values: vals,
	}
}

// ---- table5 ----

// table5Models are the mixed-format study models of Table 5.
var table5Models = []string{"bert_base_mrpc", "bert_large_rte", "funnel_mrpc", "longformer_mrpc"}

// table5Recipes are the Table 5 columns.
var table5Recipes = []recipeColumn{
	{"E5M2", func(*models.Network) quant.Recipe { return quant.StandardFP8(quant.E5M2) }},
	{"E4M3", func(*models.Network) quant.Recipe { return quant.StandardFP8(quant.E4M3) }},
	{"E3M4", func(*models.Network) quant.Recipe { return quant.StandardFP8(quant.E3M4) }},
	{"Mixed", func(*models.Network) quant.Recipe { return quant.MixedFP8() }},
}

// ---- table6 ----

// table6Cases are the static-vs-dynamic comparisons of Table 6.
var table6Cases = []struct {
	model  string
	format quant.DType
}{
	{"bert_base_mrpc", quant.E4M3},
	{"bert_base_cola", quant.E4M3},
	{"bert_large_rte", quant.E4M3},
	{"xlm_roberta_mrpc", quant.E3M4},
}

func table6Spec() GridSpec {
	ms := make([]string, len(table6Cases))
	for i, c := range table6Cases {
		ms[i] = c.model
	}
	return GridSpec{
		ID: "table6",
		Axes: []Axis{
			{Name: "model", Values: ms},
			{Name: "approach", Values: []string{"Dynamic", "Static"}},
		},
	}
}

func runTable6Cell(c Cell) evalx.Result {
	cs := table6Cases[c.Coords[0]]
	return evalModelCell(c.session, cs.model, c.Values[1], func(*models.Network) quant.Recipe {
		if c.Coords[1] == 0 {
			return quant.DynamicFP8(cs.format)
		}
		return quant.StandardFP8(cs.format)
	})
}

func renderTable6(g *Grid) *Report {
	tb := newTable("Model", "FP8 Format", "Dynamic", "Static", "Improvement")
	vals := map[string]float64{}
	for mi, cs := range table6Cases {
		rd, rs := g.At(mi, 0), g.At(mi, 1)
		if rd.Err != "" || rs.Err != "" {
			continue
		}
		dyn, st := rd.QAcc, rs.QAcc
		tb.add(cs.model, cs.format.String(),
			fmt.Sprintf("%.4f", dyn), fmt.Sprintf("%.4f", st),
			fmt.Sprintf("%+.2f%%", (dyn-st)*100))
		vals[cs.model+"_dynamic"] = dyn
		vals[cs.model+"_static"] = st
	}
	return &Report{
		Text: "Table 6 reproduction: static vs dynamic quantization on NLP workloads\n" +
			"(paper reports dynamic improving E4M3/E3M4 accuracy on selected models).\n\n" + tb.String(),
		Values: vals,
	}
}

// ---- fig9 ----

// fig9Group is one Figure 9 table row: a (domain, format, coverage)
// triple averaged over its 12 models.
type fig9Group struct {
	domain  string
	format  quant.DType
	altOps  bool // CV: +first/last; NLP: extended coverage
	names   []string
	label   string
	valsKey string
}

const fig9GroupSize = 12

func fig9Groups() []fig9Group {
	cvNames := models.NamesByDomain(models.CV)[:fig9GroupSize]
	nlpNames := models.NamesByDomain(models.NLP)[:fig9GroupSize]
	var groups []fig9Group
	for _, f := range []quant.DType{quant.E5M2, quant.E4M3, quant.E3M4} {
		for _, alt := range []bool{false, true} {
			label := "Conv,Linear"
			if alt {
				label = "Conv,Linear -1st&LastOps"
			}
			groups = append(groups, fig9Group{"CV", f, alt, cvNames, label,
				fmt.Sprintf("cv_%s_firstlast_%v", f, alt)})
		}
	}
	for _, f := range []quant.DType{quant.E5M2, quant.E4M3, quant.E3M4} {
		for _, alt := range []bool{false, true} {
			label := "Linear"
			if alt {
				label = "Linear +BMM,MM,Emb,LayerNorm"
			}
			groups = append(groups, fig9Group{"NLP", f, alt, nlpNames, label,
				fmt.Sprintf("nlp_%s_extended_%v", f, alt)})
		}
	}
	return groups
}

// fig9Spec flattens the (group, model) schedule into one axis whose
// values carry the full cell identity (domain/format/coverage/model),
// since the model list differs per group and the grid must stay
// self-describing for the result store.
func fig9Spec() GridSpec {
	groups := fig9Groups()
	vals := make([]string, 0, len(groups)*fig9GroupSize)
	for _, g := range groups {
		cov := "base"
		if g.altOps {
			cov = "alt"
		}
		for _, name := range g.names {
			vals = append(vals, fmt.Sprintf("%s/%s/%s/%s", g.domain, g.format, cov, name))
		}
	}
	return GridSpec{ID: "fig9", Axes: []Axis{{Name: "config", Values: vals}}}
}

func runFig9Cell(c Cell) evalx.Result {
	g := fig9Groups()[c.Index/fig9GroupSize]
	r := quant.StandardFP8(g.format)
	if g.altOps {
		if g.domain == "CV" {
			r = r.WithFirstLast()
		} else {
			r = r.WithExtendedOps()
		}
	}
	return evalModelCell(c.session, g.names[c.Index%fig9GroupSize], g.label, func(*models.Network) quant.Recipe { return r })
}

func renderFig9(g *Grid) *Report {
	vals := map[string]float64{}
	tb := newTable("domain", "recipe", "format", "mean loss", "std", "max")
	for gi, grp := range fig9Groups() {
		var losses []float64
		for mi := 0; mi < fig9GroupSize; mi++ {
			if r := g.Results[gi*fig9GroupSize+mi]; r.Err == "" {
				losses = append(losses, r.RelLoss*100)
			}
		}
		s := evalx.ComputeLossStats(losses)
		tb.add(grp.domain, grp.label, grp.format.String(), fmt.Sprintf("%.2f%%", s.Mean),
			fmt.Sprintf("%.2f", s.Std), fmt.Sprintf("%.2f%%", s.Max))
		vals[grp.valsKey] = s.Mean
	}
	return &Report{
		Text: "Figure 9 reproduction: accuracy impact of extended quantization recipes\n" +
			"(CV: quantizing first/last ops; NLP: expanded operator coverage).\n\n" + tb.String(),
		Values: vals,
	}
}

// ---- firstlast ----

var firstLastFormats = []quant.DType{quant.E5M2, quant.E4M3, quant.E3M4}

// firstLastCNNs returns the CNN subset of the CV zoo (Section 4.3.1's
// study population).
func firstLastCNNs() []string {
	var cnns []string
	for _, name := range models.NamesByDomain(models.CV) {
		if info, _ := models.InfoFor(name); info.IsCNN {
			cnns = append(cnns, name)
		}
	}
	return cnns
}

func firstLastSpec() GridSpec {
	fms := make([]string, len(firstLastFormats))
	for i, f := range firstLastFormats {
		fms[i] = f.String()
	}
	return GridSpec{
		ID: "firstlast",
		Axes: []Axis{
			{Name: "format", Values: fms},
			{Name: "variant", Values: []string{"std", "first/last"}},
			{Name: "model", Values: firstLastCNNs()},
		},
	}
}

func runFirstLastCell(c Cell) evalx.Result {
	r := quant.StandardFP8(firstLastFormats[c.Coords[0]])
	if c.Coords[1] == 1 {
		r = r.WithFirstLast()
	}
	return evalModelCell(c.session, c.Values[2], c.Values[0]+" "+c.Values[1], func(*models.Network) quant.Recipe { return r })
}

func renderFirstLast(g *Grid) *Report {
	tb := newTable("format", "pass rate (std)", "pass rate (+first/last)", "drop")
	vals := map[string]float64{}
	nModels := len(g.Spec.Axes[2].Values)
	for fi, f := range firstLastFormats {
		var std, fl, total int
		for mi := 0; mi < nModels; mi++ {
			rs, rf := g.At(fi, 0, mi), g.At(fi, 1, mi)
			if rs.Err != "" || rf.Err != "" {
				continue
			}
			total++
			if rs.Pass {
				std++
			}
			if rf.Pass {
				fl++
			}
		}
		if total == 0 {
			// Every cell of this format errored; a 0/0 division would
			// put NaN into Values and break JSON encoding downstream.
			tb.add(f.String(), "-", "-", "no evaluable models")
			continue
		}
		sp := float64(float64(std) / float64(total) * 100)
		fp := float64(float64(fl) / float64(total) * 100)
		tb.add(f.String(), pct(sp), pct(fp), fmt.Sprintf("%.1f pts", sp-fp))
		vals["std_"+f.String()] = sp
		vals["firstlast_"+f.String()] = fp
	}
	return &Report{
		Text: "Section 4.3.1 reproduction: quantizing the first convolution and last\n" +
			"linear layer reduces the CNN pass rate, most for the low-mantissa formats.\n\n" + tb.String(),
		Values: vals,
	}
}
