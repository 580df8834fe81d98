package quant_test

import (
	"math"
	"reflect"
	"testing"

	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
	"fp8quant/internal/nn"
	"fp8quant/internal/quant"
)

// TestSitesReusedAcrossRecipes runs one session-style network (built
// once, planned) through a mixed sequence of recipes — first/last
// quantization, extended coverage, SmoothQuant, dynamic INT8, BatchNorm
// calibration and SmoothQuant again — and checks that each recipe's
// quantized output, accuracy and Report equal those of a freshly built
// network, and that the network's site table was built once.
func TestSitesReusedAcrossRecipes(t *testing.T) {
	for _, name := range []string{"cifar_resnet20", "tinybert_mrpc"} {
		t.Run(name, func(t *testing.T) {
			net, err := models.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			plan := nn.NewPlan(nil)
			net.InstallPlan(plan)
			defer net.InstallPlan(nil)
			ref := evalx.ComputeReference(net)

			// Calibration runs on the FP32 network, so a second
			// SmoothQuant sees other activations only on other batches.
			smoothAgain := quant.StandardFP8(quant.E4M3).WithSmoothQuant(0.5)
			smoothAgain.CalibBatches = 2
			recipes := []struct {
				label string
				r     quant.Recipe
			}{
				{"first/last", quant.StandardFP8(quant.E3M4).WithFirstLast()},
				{"extended", quant.StandardFP8(quant.E4M3).WithExtendedOps()},
				{"smoothquant", quant.StandardINT8(false).WithSmoothQuant(0.5)},
				{"dynamic int8", quant.StandardINT8(true)},
				{"bncalib", quant.StandardFP8(quant.E4M3).WithBNCalib(evalx.CalibBatches)},
				{"smoothquant again", smoothAgain},
			}
			eval := net.Data.Batch(evalx.EvalStart)
			for _, c := range recipes {
				h := quant.Quantize(net, net.Data, c.r)
				out := net.Run(eval).Clone()
				acc := evalx.AccuracyAgainst(net, ref)
				rep := h.Report
				h.Release()

				fresh, err := models.Build(name)
				if err != nil {
					t.Fatal(err)
				}
				fh := quant.Quantize(fresh, fresh.Data, c.r)
				wantOut := fresh.Run(eval)
				want := evalx.AccuracyAgainst(fresh, ref)
				fh.Release()
				for i, v := range out.Data {
					if math.Float32bits(v) != math.Float32bits(wantOut.Data[i]) {
						t.Errorf("%s: output %d is %v on the reused network, %v on a fresh one", c.label, i, v, wantOut.Data[i])
						break
					}
				}
				if math.Float64bits(acc) != math.Float64bits(want) {
					t.Errorf("%s: accuracy %v on the reused network, %v on a fresh one", c.label, acc, want)
				}
				if !reflect.DeepEqual(rep, fh.Report) {
					t.Errorf("%s: report %+v on the reused network, %+v on a fresh one", c.label, rep, fh.Report)
				}
				if n := quant.SiteBuilds(fresh); n != 1 {
					t.Errorf("%s: a fresh network built its site table %d times", c.label, n)
				}
			}
			if n := quant.SiteBuilds(net); n != 1 {
				t.Errorf("the reused network built its site table %d times over %d recipes, want 1", n, len(recipes))
			}
		})
	}
}

// TestSiteHooksKeepNoRecipeState runs static E4M3, dynamic E3M4,
// static INT8, dynamic INT8 and static E3M4 in turn on one network,
// releasing in between, and checks each recipe's quantized output
// equals the same recipe's on a fresh build: no site's mode, codec,
// scale or INT8 range survives Release into the next recipe.
func TestSiteHooksKeepNoRecipeState(t *testing.T) {
	const name = "tinybert_mrpc"
	net, err := models.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	eval := net.Data.Batch(evalx.EvalStart)
	for _, r := range []quant.Recipe{
		quant.StandardFP8(quant.E4M3),
		quant.DynamicFP8(quant.E3M4),
		quant.StandardINT8(false),
		quant.StandardINT8(true),
		quant.StandardFP8(quant.E3M4),
	} {
		h := quant.Quantize(net, net.Data, r)
		got := net.Run(eval).Clone()
		h.Release()

		fresh, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		fh := quant.Quantize(fresh, fresh.Data, r)
		want := fresh.Run(eval)
		fh.Release()
		for i, v := range got.Data {
			if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s: output %d is %v after the earlier recipes, %v on a fresh build", r.Name(), i, v, want.Data[i])
			}
		}
	}
}
