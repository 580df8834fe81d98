package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"fp8quant/internal/tensor/kernels"
)

// goldenJSON pins, per GOARCH/kernel variant, one sha256 per pool model
// over its six Table-2 cells as the executor stores them. Regenerate it
// with -write-golden after a change that is meant to move cell bytes.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	About string `json:"about"`
	// Digests maps "GOARCH/variant" -> model -> modelDigest.
	Digests map[string]map[string]string `json:"digests"`
}

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// variantKey names the host's cell bytes: the GEMM tier alone does not,
// because other architectures may round differently under one label.
func variantKey() string { return runtime.GOARCH + "/" + string(kernels.Active()) }

// expectedCells maps the fingerprint of every Table-2 cell of the models
// to its model.
func expectedCells(models []string) (map[string]string, error) {
	e, f, err := table2(models)
	if err != nil {
		return nil, err
	}
	spec := e.Spec()
	sel := spec.Select(f)
	if len(sel) != len(models)*recipesPerModel {
		return nil, fmt.Errorf("models %v select %d cells, want %d", models, len(sel), len(models)*recipesPerModel)
	}
	out := make(map[string]string, len(sel))
	for _, i := range sel {
		c := spec.CellAt(i)
		out[spec.CellKey(c).Fingerprint()] = c.Values[0]
	}
	return out, nil
}

// storedCell is one cell file of a store.
type storedCell struct {
	model string
	sum   string // hex sha256 of the file bytes
	size  int64
}

// readStore reads every cell file of a store directory, keyed by
// fingerprint.
func readStore(dir string) (map[string]storedCell, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "c-*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]storedCell, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var env struct {
			Key struct {
				Cell []struct{ Axis, Value string } `json:"cell"`
			} `json:"key"`
		}
		if err := json.Unmarshal(b, &env); err != nil || len(env.Key.Cell) == 0 {
			return nil, fmt.Errorf("%s: not a cell envelope", p)
		}
		sum := sha256.Sum256(b)
		fp := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "c-"), ".json")
		out[fp] = storedCell{model: env.Key.Cell[0].Value, sum: hex.EncodeToString(sum[:]), size: int64(len(b))}
	}
	return out, nil
}

// modelDigests returns, per model, the sha256 over its cells' sorted
// "fingerprint payload-sha256" lines.
func modelDigests(cells map[string]storedCell) map[string]string {
	lines := map[string][]string{}
	for fp, c := range cells {
		lines[c.model] = append(lines[c.model], fp+" "+c.sum+"\n")
	}
	out := make(map[string]string, len(lines))
	for m, ls := range lines {
		sort.Strings(ls)
		sum := sha256.Sum256([]byte(strings.Join(ls, "")))
		out[m] = hex.EncodeToString(sum[:])
	}
	return out
}

// checkCells compares a repetition's store with the expected cell set, the
// golden digests (nil: none for this host) and the first repetition of
// the run (nil for the first one itself). It returns the fingerprints of
// bad cells with the reason.
func checkCells(got map[string]storedCell, want map[string]string, golden map[string]string, first map[string]storedCell) map[string]string {
	bad := map[string]string{}
	for fp := range got {
		if _, ok := want[fp]; !ok {
			bad[fp] = "unexpected cell in store"
		}
	}
	for fp := range want {
		if _, ok := got[fp]; !ok {
			bad[fp] = "missing from store"
		}
	}
	if golden != nil {
		digests := modelDigests(got)
		for fp, m := range want {
			if _, ok := bad[fp]; !ok && digests[m] != golden[m] {
				bad[fp] = fmt.Sprintf("model %s differs from its golden digest for %s", m, variantKey())
			}
		}
	}
	for fp, c := range got {
		if f, ok := first[fp]; ok && f.sum != c.sum {
			if _, seen := bad[fp]; !seen {
				bad[fp] = "bytes differ from the run's first repetition"
			}
		}
	}
	return bad
}

// writeGolden recomputes the golden digests of both pools under every
// kernel variant the host offers and writes them to bench/golden.json.
func writeGolden(ctx context.Context, work string) error {
	g := goldenFile{
		About:   "sha256 per model over its six Table-2 cells as harness.RunGrid stores them: sorted \"fingerprint sha256(cell file)\" lines. Written by -write-golden.",
		Digests: map[string]map[string]string{},
	}
	if old, err := loadGolden(); err == nil && old.Digests != nil {
		g.Digests = old.Digests // keep other architectures' digests
	}
	var pool []string
	for m := range cnnCost {
		pool = append(pool, m)
	}
	for m := range tokenCost {
		pool = append(pool, m)
	}
	sort.Strings(pool)
	for _, v := range kernels.Available() {
		dir, err := os.MkdirTemp(work, "golden-")
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "golden: %d models under %s/%s\n", len(pool), runtime.GOARCH, v)
		cr, err := runChild(ctx, childSpec{Mode: "sweep", Models: pool, Store: dir}, "FP8_KERNEL="+string(v))
		if err == nil && len(cr.report.Errors) > 0 {
			err = fmt.Errorf("%d cells failed: %s", len(cr.report.Errors), cr.report.Errors[0])
		}
		var cells map[string]storedCell
		if err == nil {
			cells, err = readStore(dir)
		}
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("golden %s: %w", v, err)
		}
		want, err := expectedCells(pool)
		if err != nil {
			return err
		}
		if bad := checkCells(cells, want, nil, nil); len(bad) > 0 {
			return fmt.Errorf("golden %s: %d bad cells", v, len(bad))
		}
		g.Digests[runtime.GOARCH+"/"+string(v)] = modelDigests(cells)
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("bench", "golden.json"), append(b, '\n'), 0o644)
}
