package harness

import (
	"fmt"
	"math"

	"fp8quant/internal/evalx"
	"fp8quant/internal/fp8"
	"fp8quant/internal/nn"
	"fp8quant/internal/quant"
	"fp8quant/internal/tensor"
)

func init() {
	registerScalar("fig1",
		"Figure 1: quantized-value grids and MSE, N(0,0.5) + 1% outliers U(-6,6)", runFig1)
	registerScalar("fig3",
		"Figure 3: tensor distribution characterization (range- vs precision-bound)", runFig3)
	registerScalar("fig10",
		"Figure 10 / A.1: KL-clipped vs max-scaled FP8 mapping", runFig10)
	registerGrid("fig8",
		"Figure 8: MSE of mixed FP8 formats vs single format on a BERT-style Linear",
		fig8Spec, runFig8Cell, renderFig8)
}

// fig1Tensor draws the Figure 1 tensor: X ~ N(0, 0.5) with 1% outliers
// uniform in (-mag, mag).
func fig1Tensor(n int, mag float64, seed uint64) []float32 {
	r := tensor.NewRNG(seed)
	x := make([]float32, n)
	sigma := math.Sqrt(0.5)
	for i := range x {
		x[i] = float32(sigma * r.Norm())
	}
	for i := 0; i < n/100; i++ {
		x[r.Intn(n)] = float32(r.Uniform(-mag, mag))
	}
	return x
}

func quantMSE(x []float32, q func(float64) float64) float64 {
	var s float64
	for _, v := range x {
		d := q(float64(v)) - float64(v)
		s += float64(d * d)
	}
	return s / float64(len(x))
}

func absmax32(x []float32) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return m
}

func runFig1() *Report {
	const n = 200000
	vals := map[string]float64{}
	tb := newTable("outlier-mag", "format", "grid pts in 3σ", "MSE")
	for _, mag := range []float64{6, 20} {
		x := fig1Tensor(n, mag, 0xF161)
		am := absmax32(x)
		sigma3 := 3 * math.Sqrt(0.5)
		for _, f := range fp8.Formats {
			scale := f.MaxValue() / am
			in3 := 0
			for _, p := range f.GridPoints() {
				if p/scale <= sigma3 {
					in3++
				}
			}
			mse := quantMSE(x, func(v float64) float64 {
				return f.Quantize(v*scale) / scale
			})
			tb.add(fmt.Sprintf("%.0f", mag), f.Name,
				fmt.Sprintf("%d", in3), fmt.Sprintf("%.3e", mse))
			vals[fmt.Sprintf("mse_%s_mag%.0f", f.Name, mag)] = mse
		}
		qi := fp8.NewInt8Symmetric(am)
		in3 := 0
		for _, p := range fp8.Int8GridPoints(am) {
			if p <= sigma3 {
				in3++
			}
		}
		mse := quantMSE(x, qi.Quantize)
		tb.add(fmt.Sprintf("%.0f", mag), "INT8",
			fmt.Sprintf("%d", in3), fmt.Sprintf("%.3e", mse))
		vals[fmt.Sprintf("mse_INT8_mag%.0f", mag)] = mse
	}
	text := "Figure 1 reproduction (right panel = MSE; centre panel = grid density in the 3σ region).\n" +
		"Paper setup is outlier magnitude 6; magnitude 20 extends to the LLM-scale outlier\n" +
		"regime where both E4M3 and E3M4 dominate INT8 (see EXPERIMENTS.md).\n\n" + tb.String()
	return &Report{Text: text, Values: vals}
}

func runFig3() *Report {
	r := tensor.NewRNG(0xF163)
	// NLP activation: normal bulk + sparse huge channel outliers.
	nlp := tensor.New(4096)
	nlp.FillNormal(r, 0, 1)
	nlp.InjectOutliers(r, 0.005, 40, 60)
	// CV activation: post-BN/ReLU, bounded.
	cv := tensor.New(4096)
	cv.FillNormal(r, 0, 1)
	cv.Apply(func(v float32) float32 {
		if v < 0 {
			return 0
		}
		return v
	})
	// Weights: tight normal.
	w := tensor.New(4096)
	w.FillNormal(r, 0, 0.05)

	tb := newTable("tensor", "absmax", "std", "absmax/std", "kurtosis", "class")
	vals := map[string]float64{}
	row := func(name string, t *tensor.Tensor) {
		ratio := t.AbsMax() / math.Max(t.Std(), 1e-12)
		kurt := t.Kurtosis()
		class := "precision-bound"
		if ratio > 10 {
			class = "range-bound"
		}
		tb.add(name, fmt.Sprintf("%.2f", t.AbsMax()), fmt.Sprintf("%.3f", t.Std()),
			fmt.Sprintf("%.1f", ratio), fmt.Sprintf("%.1f", kurt), class)
		vals["ratio_"+name] = ratio
		vals["kurtosis_"+name] = kurt
	}
	row("nlp_activation", nlp)
	row("cv_activation", cv)
	row("weights", w)
	return &Report{
		Text: "Figure 3 reproduction: NLP activations are range-bound (outliers);\n" +
			"CV activations and weights are precision-bound.\n\n" + tb.String(),
		Values: vals,
	}
}

func runFig10() *Report {
	// The appendix demo: a tensor with outliers near 6; KL calibration
	// clips the range near 2, which buys denser small-value coverage
	// but *increases* MSE for FP8, whose density is already
	// concentrated near zero.
	r := tensor.NewRNG(0xF1610)
	n := 100000
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(math.Sqrt(0.5) * r.Norm())
	}
	for i := 0; i < n/100; i++ {
		x[r.Intn(n)] = float32(r.Uniform(5.5, 6))
	}
	obs := quant.NewHistogramObserver(2048)
	obs.Observe(x)

	am := absmax32(x)
	vals := map[string]float64{}
	tb := newTable("target", "max threshold", "KL threshold", "MSE@max", "MSE@KL")
	// INT8: KL clips below the outlier cluster.
	int8KL := obs.KLThreshold(func(t float64) quant.Quantizer { return fp8.NewInt8Symmetric(t) })
	int8MSEmax := quantMSE(x, fp8.NewInt8Symmetric(am).Quantize)
	int8MSEkl := quantMSE(x, clipThen(int8KL, fp8.NewInt8Symmetric(int8KL).Quantize))
	tb.add("INT8", fmt.Sprintf("%.3f", am), fmt.Sprintf("%.3f", int8KL),
		fmt.Sprintf("%.3e", int8MSEmax), fmt.Sprintf("%.3e", int8MSEkl))
	vals["int8_mse_max"] = int8MSEmax
	vals["int8_mse_kl"] = int8MSEkl
	vals["int8_kl_threshold"] = int8KL

	// E4M3: KL clipping gives no benefit (and typically hurts).
	f := fp8.E4M3
	e4KL := obs.KLThreshold(func(t float64) quant.Quantizer { return quant.NewScaledFP8(f, t) })
	mkQ := func(t float64) func(float64) float64 {
		scale := f.MaxValue() / t
		return func(v float64) float64 { return f.Quantize(v*scale) / scale }
	}
	e4MSEmax := quantMSE(x, mkQ(am))
	e4MSEkl := quantMSE(x, clipThen(e4KL, mkQ(e4KL)))
	tb.add("E4M3", fmt.Sprintf("%.3f", am), fmt.Sprintf("%.3f", e4KL),
		fmt.Sprintf("%.3e", e4MSEmax), fmt.Sprintf("%.3e", e4MSEkl))
	vals["e4m3_mse_max"] = e4MSEmax
	vals["e4m3_mse_kl"] = e4MSEkl
	vals["e4m3_kl_threshold"] = e4KL

	return &Report{
		Text: "Figure 10 / Appendix A.1 reproduction: KL-based range clipping on a tensor\n" +
			"with outliers near 6. The clipped mapping represents small values more densely\n" +
			"yet has LARGER MSE than plain max scaling — the appendix's demonstration that\n" +
			"KL calibration brings nothing to FP8's already log-dense near-zero grid.\n\n" + tb.String(),
		Values: vals,
	}
}

// clipThen clamps |v| to t before quantizing (KL-clipped pipeline).
func clipThen(t float64, q func(float64) float64) func(float64) float64 {
	return func(v float64) float64 {
		if v > t {
			v = t
		} else if v < -t {
			v = -t
		}
		return q(v)
	}
}

// fig8Layer deterministically rebuilds the Figure 8 study unit: a
// BERT-base-style Linear (weights normal, precision-bound) and an input
// batch with channel outliers (range-bound). Each grid cell builds its
// own copy so the format configs quantize in isolation.
func fig8Layer() (*nn.Linear, *tensor.Tensor) {
	r := tensor.NewRNG(0xF168)
	const in, out, rows = 64, 64, 256
	l := nn.NewLinear(in, out)
	for o := 0; o < out; o++ {
		for i := 0; i < in; i++ {
			l.W.Data[o*in+i] = float32(0.12 * r.Norm())
		}
	}
	x := tensor.New(rows, in)
	x.FillNormal(r, 0, 1)
	// Two outlier channels at 50x/35x (MRPC BERT-style activation
	// outliers). Note a documented deviation (EXPERIMENTS.md): with
	// bit-accurate per-tensor max scaling, outlier representation
	// error dominates the raw input MSE and the extra mantissa bit
	// means E3M4's input MSE stays below E4M3's at any outlier ratio;
	// the paper's E3M4 input blow-up is not reproducible at the MSE
	// level. The mixed assignment's advantage shows on the weight
	// side here and at the accuracy level in Table 5.
	for row := 0; row < rows; row++ {
		x.Data[row*in+7] *= 50
		x.Data[row*in+23] *= 35
	}
	return l, x
}

var fig8Cfgs = []struct {
	name     string
	act, wgt quant.DType
}{
	{"E5M2", quant.E5M2, quant.E5M2},
	{"E4M3", quant.E4M3, quant.E4M3},
	{"E3M4", quant.E3M4, quant.E3M4},
	{"Mixed(E4M3 act + E3M4 wgt)", quant.E4M3, quant.E3M4},
}

func fig8Spec() GridSpec {
	labels := make([]string, len(fig8Cfgs))
	for i, c := range fig8Cfgs {
		labels[i] = c.name
	}
	return GridSpec{
		ID:   "fig8",
		Seed: 0xF168,
		Axes: []Axis{{Name: "config", Values: labels}},
	}
}

// runFig8Cell measures one format config on a private rebuild of the
// Figure 8 layer.
func runFig8Cell(c Cell) evalx.Result {
	cfg := fig8Cfgs[c.Index]
	l, x := fig8Layer()
	refOut := l.Forward(nil, x)
	xq := x.Clone()
	var aq quant.ActQuant
	aq.Set(quant.Recipe{Act: cfg.act, Approach: quant.Static}, xq.AbsMax(), 0, 0)
	aq.Apply(xq.Data, xq.Data)
	master := quant.QuantizeWeightPerChannel(l.W, 0, cfg.wgt)
	outQ := l.Forward(nil, xq)
	return evalx.Result{
		Model: "bert_linear", Recipe: cfg.name,
		Metrics: map[string]float64{
			"in_mse":  tensor.MSE(x.Data, xq.Data),
			"w_mse":   tensor.MSE(master, l.W.Data),
			"out_mse": tensor.MSE(refOut.Data, outQ.Data),
		},
	}
}

func renderFig8(g *Grid) *Report {
	vals := map[string]float64{}
	tb := newTable("config", "input MSE", "weight MSE", "output MSE")
	for i, c := range fig8Cfgs {
		r := g.Results[i]
		if r.Err != "" {
			tb.add(c.name, "error: "+r.Err)
			continue
		}
		m := r.Metrics
		tb.add(c.name, fmt.Sprintf("%.4e", m["in_mse"]),
			fmt.Sprintf("%.4e", m["w_mse"]), fmt.Sprintf("%.4e", m["out_mse"]))
		vals["out_mse_"+c.name] = m["out_mse"]
	}
	return &Report{
		Text: "Figure 8 reproduction: output MSE of a Linear with range-bound inputs and\n" +
			"precision-bound weights. Mixed formats pair E4M3's range for activations with\n" +
			"E3M4's precision for weights.\n\n" + tb.String(),
		Values: vals,
	}
}
