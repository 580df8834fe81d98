package harness

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "firstlast", "table2", "table3", "table4", "table5", "table6",
		"ablation-wgt", "ablation-calib",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registered %d experiments, want %d: %v", len(ids), len(want), ids)
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("nope"); ok {
		t.Error("unknown id should not resolve")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := newTable("a", "bb")
	tb.add("1", "2")
	tb.add("333", "4")
	out := tb.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "333") {
		t.Errorf("table output: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Errorf("table has %d lines", len(lines))
	}
}

// TestFig1Shape checks the headline Figure 1 invariants on the actual
// experiment output: E3M4 < INT8 at the paper's outlier magnitude, and
// both E4M3 and E3M4 < INT8 at the LLM-scale magnitude; E5M2 worst FP8.
func TestFig1Shape(t *testing.T) {
	e, _ := Get("fig1")
	rep := Run(e)
	v := rep.Values
	if !(v["mse_E3M4_mag6"] < v["mse_INT8_mag6"]) {
		t.Errorf("E3M4 (%e) should beat INT8 (%e) at magnitude 6",
			v["mse_E3M4_mag6"], v["mse_INT8_mag6"])
	}
	if !(v["mse_E4M3_mag20"] < v["mse_INT8_mag20"] && v["mse_E3M4_mag20"] < v["mse_INT8_mag20"]) {
		t.Errorf("both FP8 formats should beat INT8 at magnitude 20: %v", v)
	}
	if !(v["mse_E5M2_mag6"] > v["mse_E4M3_mag6"]) {
		t.Errorf("E5M2 should be the worst FP8 format")
	}
	if !strings.Contains(rep.Text, "E4M3") {
		t.Error("report text missing format rows")
	}
}

func TestFig3Shape(t *testing.T) {
	e, _ := Get("fig3")
	rep := Run(e)
	v := rep.Values
	if v["ratio_nlp_activation"] <= 10 {
		t.Errorf("NLP activation should be range-bound: ratio %v", v["ratio_nlp_activation"])
	}
	if v["ratio_weights"] > 10 {
		t.Errorf("weights should be precision-bound: ratio %v", v["ratio_weights"])
	}
	if v["kurtosis_nlp_activation"] <= v["kurtosis_weights"] {
		t.Error("NLP activations must have heavier tails than weights")
	}
}

func TestFig10Shape(t *testing.T) {
	e, _ := Get("fig10")
	rep := Run(e)
	v := rep.Values
	// KL calibration must clip below the outlier cluster (the demo's
	// "clipped max value is 2" behaviour).
	if v["int8_kl_threshold"] >= 5.5 {
		t.Errorf("INT8 KL threshold %v should clip outliers", v["int8_kl_threshold"])
	}
	// The appendix's observation: the KL-clipped FP8 mapping, despite
	// denser small-value coverage, has LARGER MSE than plain max
	// scaling — KL brings nothing for FP8's log-spaced grid.
	if v["e4m3_mse_kl"] <= v["e4m3_mse_max"] {
		t.Errorf("KL-clipped E4M3 MSE %v should exceed max-scaled %v (appendix demo)",
			v["e4m3_mse_kl"], v["e4m3_mse_max"])
	}
}

func TestFig8Shape(t *testing.T) {
	e, _ := Get("fig8")
	rep := Run(e)
	v := rep.Values
	mixed := v["out_mse_Mixed(E4M3 act + E3M4 wgt)"]
	for _, single := range []string{"E5M2", "E4M3"} {
		if mixed >= v["out_mse_"+single] {
			t.Errorf("mixed (%e) should beat %s (%e)", mixed, single, v["out_mse_"+single])
		}
	}
}

// TestResolveIDs covers the -exp argument expansion.
func TestResolveIDs(t *testing.T) {
	ids, err := ResolveIDs("table2, table3")
	if err != nil || len(ids) != 2 || ids[0] != "table2" || ids[1] != "table3" {
		t.Errorf("ResolveIDs = %v, %v", ids, err)
	}
	if all, err := ResolveIDs("all"); err != nil || len(all) != len(IDs()) {
		t.Errorf("ResolveIDs(all) = %d ids, %v", len(all), err)
	}
	for _, bad := range []string{"", ",", "nope", "table2,nope"} {
		if _, err := ResolveIDs(bad); err == nil {
			t.Errorf("ResolveIDs(%q) should error", bad)
		}
	}
}
