package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"fp8quant/internal/resultstore"
	"fp8quant/internal/tensor/kernels"
)

// goldenReports are the cheap experiments whose whole report the
// golden test pins.
var goldenReports = []string{"fig1", "fig3", "fig8", "fig10", "ablation-wgt", "ablation-calib"}

// goldenCells are the grid cells whose store payloads the golden test
// pins, one or more from each model×recipe grid, named by experiment
// and by the cell's axis values joined with "/". Every one has a
// nonzero loss, so it pins the quantized path: the fig9 extended-ops
// BERT cells fake-quantize BatchMatMul operands, and the
// efficientnet_b0 cells run both the BatchNorm warm-up and BatchNorm
// calibration.
var goldenCells = []struct{ exp, cell string }{
	{"fig9", "NLP/E5M2/alt/bert_base_stsb"},
	{"fig9", "NLP/E4M3/alt/bert_base_stsb"},
	{"fig9", "NLP/E3M4/alt/bert_base_stsb"},
	{"fig9", "CV/E4M3/alt/efficientnet_b0"},
	{"table2", "efficientnet_b0/E4M3 Static"},
	{"table3", "bert_base_stsb/E3M4"},
	{"table5", "bert_base_mrpc/Mixed"},
	{"table6", "bert_base_mrpc/Static"},
	{"fig7", "efficientnet_b0/100 Samples + Training"},
	{"firstlast", "E3M4/first/last/efficientnet_b0"},
}

// TestGoldenDigests recomputes, under every kernel variant the host
// offers, the sha256 of each goldenReports report and of each
// goldenCells store payload, and compares them with
// testdata/golden.json (keyed "GOARCH/variant"). A refactor that moves
// one value of these outputs fails here, in tier-1. A host whose key is
// missing logs the digests it computed and skips; paste them into the
// file to pin that host.
func TestGoldenDigests(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(b, &golden); err != nil {
		t.Fatalf("testdata/golden.json: %v", err)
	}
	prev := kernels.Active()
	t.Cleanup(func() {
		if err := kernels.ForceVariant(prev); err != nil {
			t.Error(err)
		}
	})
	for _, v := range kernels.Available() {
		key := runtime.GOARCH + "/" + string(v)
		t.Run(string(v), func(t *testing.T) {
			if err := kernels.ForceVariant(v); err != nil {
				t.Fatal(err)
			}
			// modelRef and the cell memo key by model and cell only, not
			// by variant: start every variant cold.
			withCleanCache(t)
			got := goldenDigests(t)
			want, ok := golden[key]
			if !ok {
				js, _ := json.MarshalIndent(got, "", "  ")
				t.Skipf("testdata/golden.json has no %s digests; computed:\n%s", key, js)
			}
			for _, name := range sortedKeys(got) {
				if got[name] != want[name] {
					t.Errorf("%s: digest %s, golden %s", name, got[name], want[name])
				}
			}
			for name := range want {
				if _, ok := got[name]; !ok {
					t.Errorf("%s: golden digest for an output the test no longer computes", name)
				}
			}
		})
	}
}

// goldenDigests computes the digest of every pinned output under the
// active variant, keyed "report/<id>" and "<experiment>/<cell>".
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, id := range goldenReports {
		out["report/"+id] = digest([]byte(reportBytes(Run(goldenExp(t, id)))))
	}
	for _, gc := range goldenCells {
		e := goldenExp(t, gc.exp)
		spec := e.Spec()
		idx := -1
		for i := 0; i < spec.NumCells(); i++ {
			if strings.Join(spec.CellAt(i).Values, "/") == gc.cell {
				idx = i
			}
		}
		if idx < 0 {
			t.Fatalf("%s has no cell %s", gc.exp, gc.cell)
		}
		k, r := ComputeCellAt(e, idx)
		if r.Err != "" {
			t.Fatalf("%s %s: %s", gc.exp, gc.cell, r.Err)
		}
		if r.RelLoss == 0 {
			t.Errorf("%s %s: zero loss pins nothing about the quantized path", gc.exp, gc.cell)
		}
		payload, err := resultstore.EncodeCell(k, r)
		if err != nil {
			t.Fatal(err)
		}
		out[gc.exp+"/"+gc.cell] = digest(payload)
	}
	return out
}

func goldenExp(t *testing.T, id string) Experiment {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	return e
}

// reportBytes serializes a report: its text, then its values in key
// order at full precision.
func reportBytes(r *Report) string {
	var b strings.Builder
	b.WriteString(r.Text)
	for _, k := range sortedKeys(r.Values) {
		b.WriteString("\n" + k + "=" + strconv.FormatFloat(r.Values[k], 'g', -1, 64))
	}
	return b.String()
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
