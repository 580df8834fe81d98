package resultstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fp8quant/internal/evalx"
	"fp8quant/internal/models"
)

func testKey() CellKey {
	return CellKey{
		Grid: "table2-sweep",
		Cell: []AxisValue{
			{Axis: "model", Value: "resnet50"},
			{Axis: "recipe", Value: "INT8 Static CV | Dynamic NLP"},
		},
		Seed:   0,
		Schema: SchemaVersion,
	}
}

func testResult() evalx.Result {
	return evalx.Result{
		Model: "resnet50", Domain: models.CV, Recipe: "INT8 Static CV | Dynamic NLP",
		BaseAcc: 1, QAcc: 0.9987654321012345, RelLoss: 0.0012345678987655, Pass: true,
		Metrics: map[string]float64{"aux": 0.3333333333333333},
	}
}

func testManifest() Manifest {
	k := testKey()
	return Manifest{
		Grid: "table2-sweep",
		Seed: 0,
		Axes: []ManifestAxis{
			{Name: "model", Values: []string{"resnet50"}},
			{Name: "recipe", Values: []string{"INT8 Static CV | Dynamic NLP"}},
		},
		Cells: []string{k.Fingerprint()},
	}
}

func TestCellRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	if _, ok := s.Load(k.Addr()); ok {
		t.Fatal("empty store must miss")
	}
	r := testResult()
	if err := s.SaveCell(k, r); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Load(k.Addr())
	if !ok {
		t.Fatal("warm store must hit")
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("cell = %+v, want exact %+v", got, r)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 write", st)
	}
}

func TestCorruptFileIsMissAndHealed(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	if err := os.WriteFile(s.CellPath(k.Fingerprint()), []byte(`{"schema":2,"result":{truncated`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(k.Addr()); ok {
		t.Fatal("corrupt file must be a miss")
	}
	// The recompute's SaveCell atomically replaces the corrupt entry.
	if err := s.SaveCell(k, testResult()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(k.Addr()); !ok {
		t.Fatal("healed slot must hit")
	}
}

func TestSchemaMismatchIsMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	// Simulate a cell written by an older code generation: same file
	// location, stale schema stamp in the envelope.
	b, _ := json.Marshal(cellEnvelope{Schema: k.Schema - 1, Key: k, Result: testResult()})
	if err := os.WriteFile(s.CellPath(k.Fingerprint()), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(k.Addr()); ok {
		t.Fatal("stale-schema entry must be a miss")
	}
	// A key mismatch (fingerprint collision / hand-edited file) is a
	// miss too.
	other := k
	other.Cell = []AxisValue{{Axis: "model", Value: "densenet121"}}
	b, _ = json.Marshal(cellEnvelope{Schema: k.Schema, Key: other, Result: testResult()})
	if err := os.WriteFile(s.CellPath(k.Fingerprint()), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(k.Addr()); ok {
		t.Fatal("key-mismatch entry must be a miss")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := testKey()
	fp := base.Fingerprint()
	mutate := []func(*CellKey){
		func(k *CellKey) { k.Grid = "other" },
		func(k *CellKey) { k.Cell[0].Value = "densenet121" },
		func(k *CellKey) { k.Cell[0], k.Cell[1] = k.Cell[1], k.Cell[0] }, // order matters
		func(k *CellKey) { k.Cell = k.Cell[:1] },
		func(k *CellKey) { k.Seed = 1 },
		func(k *CellKey) { k.Schema++ },
	}
	for i, mut := range mutate {
		k := testKey()
		mut(&k)
		if k.Fingerprint() == fp {
			t.Errorf("mutation %d did not change the fingerprint", i)
		}
	}
	if testKey().Fingerprint() != fp {
		t.Error("fingerprint must be deterministic")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LoadManifest("table2-sweep", 0); ok {
		t.Fatal("empty store must miss manifests")
	}
	m := testManifest()
	if err := s.SaveManifest(m); err != nil {
		t.Fatal(err)
	}
	got, ok := s.LoadManifest("table2-sweep", 0)
	if !ok {
		t.Fatal("saved manifest must load")
	}
	m.Schema = SchemaVersion
	if !reflect.DeepEqual(got, m) {
		t.Errorf("manifest = %+v, want %+v", got, m)
	}
	// Manifest traffic must not pollute the cell counters.
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("manifest traffic counted in stats: %+v", st)
	}
	if _, ok := s.LoadManifest("table2-sweep", 7); ok {
		t.Error("different seed must miss")
	}
}

func TestPruneRemovesStaleEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	if err := s.SaveCell(k, testResult()); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveManifest(testManifest()); err != nil {
		t.Fatal(err)
	}
	// A schema-1 whole-grid blob from the pre-cell store, a corrupt
	// store-named cell file, and an abandoned temp file must go. A
	// *fresh* temp file (a possibly in-flight write) and foreign files
	// — even .json ones — must survive.
	stale := []string{
		"deadbeefdeadbeefdeadbeefdeadbeef.json",
		"c-0123456789abcdef0123456789abcdef.json",
		".cell-1234.tmp",
	}
	os.WriteFile(filepath.Join(dir, stale[0]), []byte(`{"schema":1,"key":{},"grid":[]}`), 0o644)
	os.WriteFile(filepath.Join(dir, stale[1]), []byte(`not json`), 0o644)
	os.WriteFile(filepath.Join(dir, stale[2]), []byte(`partial`), 0o644)
	old := time.Now().Add(-2 * tmpGrace)
	if err := os.Chtimes(filepath.Join(dir, stale[2]), old, old); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, ".cell-5678.tmp"), []byte(`in flight`), 0o644)
	os.WriteFile(filepath.Join(dir, "README.txt"), []byte(`keep me`), 0o644)
	os.WriteFile(filepath.Join(dir, "notes.json"), []byte(`{"mine": true}`), 0o644)

	n, err := s.Prune(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(stale) {
		t.Errorf("Prune removed %d files, want %d", n, len(stale))
	}
	for _, f := range stale {
		if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
			t.Errorf("stale file %s survived Prune", f)
		}
	}
	for _, keep := range []string{"README.txt", "notes.json"} {
		if _, err := os.Stat(filepath.Join(dir, keep)); err != nil {
			t.Errorf("Prune must not touch foreign file %s", keep)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, ".cell-5678.tmp")); err != nil {
		t.Error("Prune must not delete a fresh (possibly in-flight) temp file")
	}
	if _, ok := s.Load(k.Addr()); !ok {
		t.Error("current-schema cell must survive Prune(0)")
	}
	if _, ok := s.LoadManifest("table2-sweep", 0); !ok {
		t.Error("current-schema manifest must survive Prune(0)")
	}
}

func TestPruneMaxAge(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	if err := s.SaveCell(k, testResult()); err != nil {
		t.Fatal(err)
	}
	// Fresh entry survives an age-bounded prune...
	if n, err := s.Prune(time.Hour); err != nil || n != 0 {
		t.Fatalf("Prune(1h) on fresh entry = %d, %v; want 0, nil", n, err)
	}
	// ...but an old one is removed.
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(s.CellPath(k.Fingerprint()), old, old); err != nil {
		t.Fatal(err)
	}
	n, err := s.Prune(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("Prune(1h) removed %d files, want 1", n)
	}
	if _, ok := s.Load(k.Addr()); ok {
		t.Error("aged-out cell should be gone")
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	if _, ok := s.Load(testKey().Addr()); ok {
		t.Error("nil store must miss")
	}
	if err := s.SaveCell(testKey(), testResult()); err != nil {
		t.Error("nil store SaveCell must be a no-op")
	}
	if err := s.SaveManifest(testManifest()); err != nil {
		t.Error("nil store SaveManifest must be a no-op")
	}
	if _, ok := s.LoadManifest("x", 0); ok {
		t.Error("nil store must miss manifests")
	}
	if n, err := s.Prune(0); n != 0 || err != nil {
		t.Error("nil store Prune must be a no-op")
	}
	if s.Stats() != (Stats{}) || s.Dir() != "" {
		t.Error("nil store must report empty stats and dir")
	}
}

func TestAtomicWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCell(testKey(), testResult()); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveManifest(testManifest()); err != nil {
		t.Fatal(err)
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}

// TestLoadHitAllocs pins what a warm hit costs beyond the result's own
// decoded fields: Load compares the stored key with its caller's field
// by field, so it encodes and hashes neither (a hit allocated 29
// objects while it re-encoded both keys).
func TestLoadHitAllocs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := testKey().Addr()
	if err := s.Save(a, evalx.Result{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, ok := s.Load(a); !ok {
			t.Fatal("warm Load missed")
		}
	})
	if allocs > 21 {
		t.Errorf("a warm hit allocates %v objects, want at most 21", allocs)
	}
}

// TestLoadTellsNilCellFromEmpty: a key without coordinates hashes
// differently as null and as [], so Load's field-by-field comparison
// must tell them apart too — each is a miss at the other's address,
// exactly as Fsck calls it mismatched there.
func TestLoadTellsNilCellFromEmpty(t *testing.T) {
	for _, tc := range []struct{ want, stored []AxisValue }{{nil, []AxisValue{}}, {[]AxisValue{}, nil}} {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		want, stored := testKey(), testKey()
		want.Cell, stored.Cell = tc.want, tc.stored
		a := want.Addr()
		b, err := EncodeCell(stored, testResult())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.CellPath(a.FP), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Load(a); ok {
			t.Errorf("Load of cell %#v hit a file storing cell %#v", tc.want, tc.stored)
		}
		if rep, err := s.Fsck(FsckOptions{}); err != nil || !hasKind(rep, FindMismatchedCell) {
			t.Errorf("Fsck = %v, %v; want the file mismatched", findKinds(rep), err)
		}
		if err := s.Save(a, testResult()); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Load(a); !ok {
			t.Errorf("Load of cell %#v missed its own saved file", tc.want)
		}
	}
}
