package resultstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fp8quant/internal/evalx"
)

// keyFor builds a distinct cell key per model name.
func keyFor(model string) CellKey {
	k := testKey()
	k.Cell[0].Value = model
	return k
}

// assertNoTmpFiles fails if any temp files leaked into dir.
func assertNoTmpFiles(t *testing.T, dir string) {
	t.Helper()
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	hidden, _ := filepath.Glob(filepath.Join(dir, ".*.tmp"))
	if all := append(tmps, hidden...); len(all) != 0 {
		t.Errorf("temp files leaked in %s: %v", dir, all)
	}
}

// TestStampVariants pins the one-kernel-tier rule: an absent manifest
// records nothing, a legacy variant-less manifest takes the first
// variant, the same variant again writes nothing, and a second
// distinct variant is an ErrVariantConflict that leaves the manifest
// untouched.
func TestStampVariants(t *testing.T) {
	s, _ := Open(t.TempDir())
	m := testManifest()
	if err := s.StampVariants(m.Grid, m.Seed, []string{"sse"}); err != nil {
		t.Fatalf("absent manifest: %v", err)
	}
	if _, ok := s.LoadManifest(m.Grid, m.Seed); ok {
		t.Fatal("stamping an absent manifest created one")
	}
	if err := s.SaveManifest(m); err != nil { // legacy: no variant recorded
		t.Fatal(err)
	}
	path := s.ManifestPath(m.Grid, m.Seed)
	if err := s.StampVariants(m.Grid, m.Seed, []string{"sse", ""}); err != nil {
		t.Fatalf("legacy ∪ sse: %v", err)
	}
	got, _ := s.LoadManifest(m.Grid, m.Seed)
	if len(got.KernelVariants) != 1 || got.KernelVariants[0] != "sse" {
		t.Fatalf("variants = %v, want [sse]", got.KernelVariants)
	}
	before, _ := os.ReadFile(path)
	if err := s.StampVariants(m.Grid, m.Seed, []string{"sse"}); err != nil {
		t.Fatalf("same variant again: %v", err)
	}
	err := s.StampVariants(m.Grid, m.Seed, []string{"avx2"})
	if !errors.Is(err, ErrVariantConflict) || !strings.Contains(err.Error(), "kernel variant") {
		t.Fatalf("sse ∪ avx2 = %v, want ErrVariantConflict", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
		t.Error("a same-variant stamp or a refused one rewrote the manifest")
	}
	// A union that adds nothing, as every push on the grid's tier
	// makes, copies nothing.
	variants := []string{"sse"}
	if n := testing.AllocsPerRun(100, func() {
		if grew, err := got.AddVariants(variants); grew || err != nil {
			t.Fatalf("[sse] ∪ [sse] = %v, %v", grew, err)
		}
	}); n != 0 {
		t.Errorf("a union that adds nothing allocates %.0f times, want 0", n)
	}
}

// TestPruneKeepsManifestReferencedCells: an age-bounded prune must
// never drop cells a live manifest references (a store filled by
// pushes or -warm-from holds files with whatever mtime they landed
// with), while unreferenced cells still age out and manifests
// themselves are never age-pruned.
func TestPruneKeepsManifestReferencedCells(t *testing.T) {
	// One referenced cell + its manifest, and an unreferenced cell.
	dir := t.TempDir()
	dst, _ := Open(dir)
	ref := testKey()
	if err := dst.SaveCell(ref, testResult()); err != nil {
		t.Fatal(err)
	}
	if err := dst.SaveManifest(testManifest()); err != nil { // references ref only
		t.Fatal(err)
	}
	loose := keyFor("unreferenced")
	if err := dst.SaveCell(loose, testResult()); err != nil {
		t.Fatal(err)
	}

	// Age every file past the prune horizon.
	old := time.Now().Add(-3 * time.Hour)
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if err := os.Chtimes(filepath.Join(dir, e.Name()), old, old); err != nil {
			t.Fatal(err)
		}
	}
	n, err := dst.Prune(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("Prune removed %d files, want 1 (the unreferenced cell only)", n)
	}
	if _, ok := dst.Load(ref.Addr()); !ok {
		t.Error("manifest-referenced cell must survive an age-bounded prune")
	}
	if _, ok := dst.Load(loose.Addr()); ok {
		t.Error("unreferenced aged cell should be pruned")
	}
	if _, ok := dst.LoadManifest("table2-sweep", 0); !ok {
		t.Error("manifests must never age out")
	}
	assertNoTmpFiles(t, dir)
}

func TestCoverageCountsValidCells(t *testing.T) {
	s, _ := Open(t.TempDir())
	m := testManifest()
	// Empty store: everything missing.
	cov := s.Coverage(m)
	if cov.Done != 0 || len(cov.Missing) != 1 || cov.Complete() {
		t.Errorf("empty-store coverage = %+v", cov)
	}
	if err := s.SaveCell(testKey(), testResult()); err != nil {
		t.Fatal(err)
	}
	cov = s.Coverage(m)
	if !cov.Complete() || cov.Percent() != 100 {
		t.Errorf("full-store coverage = %+v, want complete", cov)
	}
	// A torn cell is as missing as no cell: a resume would recompute it.
	if err := os.WriteFile(s.CellPath(testKey().Fingerprint()), []byte(`{"sch`), 0o644); err != nil {
		t.Fatal(err)
	}
	cov = s.Coverage(m)
	if cov.Done != 0 {
		t.Errorf("corrupt-cell coverage = %+v, want missing", cov)
	}
	// So is a healthy envelope of another key: a read of this one misses.
	other, _ := EncodeCell(keyFor("densenet121"), testResult())
	if err := os.WriteFile(s.CellPath(testKey().Fingerprint()), other, 0o644); err != nil {
		t.Fatal(err)
	}
	if cov := s.Coverage(m); cov.Done != 0 {
		t.Errorf("key-mismatched-cell coverage = %+v, want missing", cov)
	}
	// Empty manifest is trivially complete; nil store has nothing.
	if cov := s.Coverage(Manifest{}); !cov.Complete() || cov.Percent() != 100 {
		t.Errorf("empty-manifest coverage = %+v", cov)
	}
	var nilStore *Store
	if cov := nilStore.Coverage(m); cov.Done != 0 || len(cov.Missing) != 1 {
		t.Errorf("nil-store coverage = %+v, want all missing", cov)
	}
}

// TestPruneRemovesWhatReadsMiss: Prune judges by the same verdict as
// the reads, so a key-mismatched cell and a misplaced manifest go,
// while a healthy cell and manifest, a fresh temp file, foreign files
// (an older coordinator's costmodel.json among them) and a directory
// stay.
func TestPruneRemovesWhatReadsMiss(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	if err := s.SaveCell(testKey(), testResult()); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveManifest(testManifest()); err != nil {
		t.Fatal(err)
	}
	other, _ := EncodeCell(keyFor("densenet121"), testResult())
	mb, _ := os.ReadFile(s.ManifestPath("table2-sweep", 0))
	gone := map[string][]byte{
		"c-0123456789abcdef0123456789abcdef.json": other, // another key's envelope
		"m-0123456789abcdef0123456789abcdef.json": mb,    // a healthy manifest, misplaced
	}
	for name, b := range gone {
		os.WriteFile(filepath.Join(dir, name), b, 0o644)
	}
	os.WriteFile(filepath.Join(dir, ".cell-1.tmp"), []byte("in flight"), 0o644)
	os.WriteFile(filepath.Join(dir, "notes.json"), []byte(`{}`), 0o644)
	os.WriteFile(filepath.Join(dir, "costmodel.json"), []byte(`{"schema":2}`), 0o644)
	// A directory is never a store file, whatever its name.
	dirNamed := "c-fedcba9876543210fedcba9876543210.json"
	if err := os.Mkdir(filepath.Join(dir, dirNamed), 0o755); err != nil {
		t.Fatal(err)
	}
	n, err := s.Prune(0)
	if err != nil || n != len(gone) {
		t.Fatalf("Prune(0) = %d, %v; want %d, nil", n, err, len(gone))
	}
	for name := range gone {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived Prune", name)
		}
	}
	for _, name := range []string{".cell-1.tmp", "notes.json", "costmodel.json", dirNamed} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("Prune removed %s: %v", name, err)
		}
	}
	if _, ok := s.Load(testKey().Addr()); !ok {
		t.Error("healthy cell must survive Prune(0)")
	}
	if _, ok := s.LoadManifest("table2-sweep", 0); !ok {
		t.Error("healthy manifest must survive Prune(0)")
	}
}

// TestIngestCell covers the ingest contract for one cell handed over
// as raw bytes: invalid payloads never land, an identical duplicate is
// skipped, a valid payload replaces a corrupt entry, and two differing
// valid payloads are a conflict.
func TestIngestCell(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := keyFor("m2")
	fp := k.Fingerprint()
	payload, err := EncodeCell(k, evalx.Result{Model: "m2", QAcc: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	// Invalid payloads never land: garbage, and a valid envelope under
	// the wrong fingerprint.
	if _, err := s.IngestCell(fp, []byte("junk")); err == nil {
		t.Fatal("garbage payload ingested")
	}
	wrong := keyFor("other").Fingerprint()
	if _, err := s.IngestCell(wrong, payload); err == nil {
		t.Fatal("payload ingested under a mismatched fingerprint")
	}
	// Absent: stored.
	if st, err := s.IngestCell(fp, payload); err != nil || st != IngestStored {
		t.Fatalf("first ingest = %v/%v, want stored", st, err)
	}
	// Identical duplicate: idempotent.
	if st, err := s.IngestCell(fp, payload); err != nil || st != IngestIdentical {
		t.Fatalf("duplicate ingest = %v/%v, want identical", st, err)
	}
	// Differing valid payload: hard error naming the fingerprint.
	conflicting, err := EncodeCell(k, evalx.Result{Model: "m2", QAcc: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestCell(fp, conflicting); err == nil || !strings.Contains(err.Error(), fp) {
		t.Fatalf("conflicting ingest err = %v, want conflict naming %s", err, fp)
	}
	// A corrupt destination is replaced, like a recompute would.
	if err := os.WriteFile(s.CellPath(fp), []byte("torn"), 0o644); err != nil { //nolint — deliberate corruption
		t.Fatal(err)
	}
	if st, err := s.IngestCell(fp, payload); err != nil || st != IngestStored {
		t.Fatalf("ingest over corrupt dst = %v/%v, want stored", st, err)
	}
	if got, ok := s.CellBytesByFingerprint(fp); !ok || !bytes.Equal(got, payload) {
		t.Fatal("store does not hold the valid payload after corruption recovery")
	}
}
