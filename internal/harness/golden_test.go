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

// goldenCells are fig9 cells whose store payloads the golden test pins:
// the extended-ops BERT cells, whose BatchMatMul operands are
// fake-quantized and whose losses are nonzero.
var goldenCells = []string{
	"NLP/E5M2/alt/bert_base_stsb",
	"NLP/E4M3/alt/bert_base_stsb",
	"NLP/E3M4/alt/bert_base_stsb",
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
// active variant, keyed "report/<id>" and "fig9/<config>".
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, id := range goldenReports {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		out["report/"+id] = digest([]byte(reportBytes(Run(e))))
	}
	e, _ := Get("fig9")
	configs := e.Spec().Axes[0].Values
	for _, cfg := range goldenCells {
		idx := -1
		for i, v := range configs {
			if v == cfg {
				idx = i
			}
		}
		if idx < 0 {
			t.Fatalf("fig9 has no cell %s", cfg)
		}
		k, r, _ := ComputeCell(e, idx)
		if r.Err != "" {
			t.Fatalf("fig9 %s: %s", cfg, r.Err)
		}
		if r.RelLoss == 0 {
			t.Errorf("fig9 %s: zero loss pins nothing about the quantized path", cfg)
		}
		payload, err := resultstore.EncodeCell(k, r)
		if err != nil {
			t.Fatal(err)
		}
		out["fig9/"+cfg] = digest(payload)
	}
	return out
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
