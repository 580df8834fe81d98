package evalx

import (
	"encoding/json"
	"math"
	"testing"

	"fp8quant/internal/data"
	"fp8quant/internal/models"
	"fp8quant/internal/quant"
	"fp8quant/internal/tensor"
)

func TestComputeReferenceShapes(t *testing.T) {
	net, err := models.Build("distilbert_mrpc")
	if err != nil {
		t.Fatal(err)
	}
	ref := ComputeReference(net)
	wantSamples := (EvalEnd - EvalStart) * 16 // nlp batch size
	if len(ref.Labels) != wantSamples {
		t.Fatalf("labels = %d, want %d", len(ref.Labels), wantSamples)
	}
	if len(ref.Keep) != wantSamples {
		t.Fatalf("keep mask = %d, want %d", len(ref.Keep), wantSamples)
	}
	kept := 0
	for _, k := range ref.Keep {
		if k {
			kept++
		}
	}
	frac := float64(kept) / float64(wantSamples)
	want := 1 - MarginKeepPct/100
	if math.Abs(frac-want) > 0.1 {
		t.Errorf("kept fraction %.2f, want ~%.2f", frac, want)
	}
}

// TestRowLabelMatchesArgmaxAndMargin holds rowLabel to data.Argmax's
// tie rule and to the two-pass top1-top2 margin it replaces, on ties,
// NaNs, infinities and one-column rows.
func TestRowLabelMatchesArgmaxAndMargin(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	rows := [][]float32{
		{0.1, 0.9, 0.5}, {3, 9, 9}, {2, 2, 2}, {nan, 1, 2}, {1, nan, 2},
		{-inf, -inf}, {inf, 1, inf}, {-2}, {5}, {-1, -3, -2},
	}
	r := tensor.NewRNG(4)
	for i := 0; i < 200; i++ {
		row := make([]float32, 1+r.Intn(6))
		for j := range row {
			row[j] = float32(r.Intn(4)) // many ties
		}
		rows = append(rows, row)
	}
	for _, row := range rows {
		label, margin := rowLabel(row)
		if want := data.Argmax(row); label != want {
			t.Errorf("%v: label %d, data.Argmax %d", row, label, want)
		}
		best, second := float32(math.Inf(-1)), float32(math.Inf(-1))
		for _, v := range row {
			if v > best {
				second, best = best, v
			} else if v > second {
				second = v
			}
		}
		if len(row) == 1 {
			second = 0
		}
		if want := best - second; math.Float32bits(margin) != math.Float32bits(want) {
			t.Errorf("%v: margin %v, want %v", row, margin, want)
		}
	}
}

func TestFP32SelfAgreementIsPerfect(t *testing.T) {
	net, _ := models.Build("distilbert_mrpc")
	ref := ComputeReference(net)
	if acc := AccuracyAgainst(net, ref); acc != 1 {
		t.Fatalf("FP32 self-agreement = %v, want 1", acc)
	}
}

func TestEvaluateRestoresModel(t *testing.T) {
	net, _ := models.Build("distilbert_mrpc")
	before := net.Run(net.Data.Batch(0)).Clone()
	Evaluate(net, quant.StandardFP8(quant.E4M3), true)
	after := net.Run(net.Data.Batch(0))
	for i := range after.Data {
		if after.Data[i] != before.Data[i] {
			t.Fatal("Evaluate must restore the model")
		}
	}
}

func TestEvaluateRecipesSharesReference(t *testing.T) {
	net, _ := models.Build("distilbert_mrpc")
	rs := []quant.Recipe{
		quant.StandardFP8(quant.E4M3),
		quant.StandardFP8(quant.E3M4),
	}
	sp := NewSplit(ComputeReference(net))
	for _, b := range rs {
		r := EvaluateOn(net, b, true, sp)
		if r.QAcc <= 0 || r.QAcc > 1 {
			t.Errorf("%s acc out of range: %v", r.Recipe, r.QAcc)
		}
		if r.Model != "distilbert_mrpc" {
			t.Errorf("model name %q", r.Model)
		}
	}
}

// TestPaperRecipeSpecialization requires each specialized recipe to
// equal, field for field, the one the constructors build, so a field
// PaperRecipe sets by mistake fails.
func TestPaperRecipeSpecialization(t *testing.T) {
	nlp, _ := models.Build("distilbert_mrpc")
	cv, _ := models.Build("cifar_resnet20")
	calib := func(r quant.Recipe) quant.Recipe {
		r.CalibBatches = CalibBatches
		return r
	}
	for _, c := range []struct {
		label      string
		net        *models.Network
		base, want quant.Recipe
	}{
		{"NLP static E4M3 smooths", nlp, quant.StandardFP8(quant.E4M3),
			calib(quant.StandardFP8(quant.E4M3).WithSmoothQuant(0.5))},
		{"NLP dynamic does not smooth", nlp, quant.DynamicFP8(quant.E4M3),
			calib(quant.DynamicFP8(quant.E4M3))},
		{"CV with BatchNorm recalibrates", cv, quant.StandardFP8(quant.E3M4),
			calib(quant.StandardFP8(quant.E3M4).WithBNCalib(CalibBatches))},
		{"CV dynamic recalibrates", cv, quant.DynamicFP8(quant.E4M3),
			calib(quant.DynamicFP8(quant.E4M3).WithBNCalib(CalibBatches))},
	} {
		if got := PaperRecipe(c.base, c.net); got != c.want {
			t.Errorf("%s: PaperRecipe = %+v, want %+v", c.label, got, c.want)
		}
	}
}

func TestAggregatePassRates(t *testing.T) {
	results := []Result{
		{Domain: models.CV, Pass: true},
		{Domain: models.CV, Pass: false},
		{Domain: models.NLP, Pass: true},
		{Domain: models.Audio, Pass: true},
		{Domain: models.RecSys, Pass: false},
	}
	pr := AggregatePassRates(results)
	if pr.CV != 50 {
		t.Errorf("CV = %v", pr.CV)
	}
	if math.Abs(pr.NLP-200.0/3) > 1e-9 {
		t.Errorf("NLP = %v", pr.NLP)
	}
	if pr.All != 60 {
		t.Errorf("All = %v", pr.All)
	}
}

func TestComputeLossStats(t *testing.T) {
	s := ComputeLossStats([]float64{1, 2, 3, 4})
	if s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.N != 4 {
		t.Errorf("stats = %+v", s)
	}
	if math.Abs(s.Median-2.5) > 1e-6 {
		t.Errorf("median = %v", s.Median)
	}
	if z := ComputeLossStats(nil); z.N != 0 {
		t.Errorf("empty stats = %+v", z)
	}
}

// TestFormatOrderingOnOutlierNLP is the core Table 2 shape invariant on
// one representative outlier-heavy NLP model: FP8 static beats the
// unsmoothed dynamic INT8 baseline.
func TestFormatOrderingOnOutlierNLP(t *testing.T) {
	net, _ := models.Build("bloom_560m")
	sp := NewSplit(ComputeReference(net))
	fp8 := EvaluateOn(net, quant.StandardFP8(quant.E4M3), true, sp)
	int8 := EvaluateOn(net, quant.StandardINT8(true), true, sp)
	if fp8.QAcc <= int8.QAcc {
		t.Errorf("E4M3 static (%.4f) should beat dynamic INT8 (%.4f) on outlier NLP",
			fp8.QAcc, int8.QAcc)
	}
}

// TestResultJSONByteDeterministic pins the serialization contract the
// store's ingest relies on: two workers computing the same cell must
// emit byte-identical JSON, or Store.IngestCell would flag every
// re-pushed cell as a conflict. Map-valued Metrics are the risky
// part — encoding/json must sort the keys regardless of insertion
// order.
func TestResultJSONByteDeterministic(t *testing.T) {
	values := map[string]float64{"fid": 12.5, "mse": 1e-6, "divergence": 0.25}
	build := func(order []string) Result {
		m := map[string]float64{}
		for _, k := range order {
			m[k] = values[k]
		}
		return Result{
			Model: "bloom_560m", Domain: models.NLP, Recipe: "E4M3 Static",
			BaseAcc: 1, QAcc: 0.993, RelLoss: 0.007, Pass: true, Metrics: m,
		}
	}
	a, err := json.Marshal(build([]string{"fid", "mse", "divergence"}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(build([]string{"divergence", "fid", "mse"}))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("Result encoding depends on Metrics insertion order:\n%s\n%s", a, b)
	}
	// And the round trip is exact, including the map.
	var back Result
	if err := json.Unmarshal(a, &back); err != nil {
		t.Fatal(err)
	}
	c, _ := json.Marshal(back)
	if string(c) != string(a) {
		t.Errorf("Result does not JSON round-trip byte-exactly:\n%s\n%s", a, c)
	}
}
