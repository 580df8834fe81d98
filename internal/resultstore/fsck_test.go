package resultstore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// findKinds returns the report's finding kinds in order.
func findKinds(rep FsckReport) []string {
	var out []string
	for _, f := range rep.Findings {
		out = append(out, f.Kind)
	}
	return out
}

func hasKind(rep FsckReport, kind string) bool {
	for _, f := range rep.Findings {
		if f.Kind == kind {
			return true
		}
	}
	return false
}

func TestFsckCleanStore(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCell(testKey(), testResult()); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveManifest(testManifest()); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSidecar("costmodel.json", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Fsck(FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() || rep.Damage != 0 {
		t.Fatalf("clean store unhealthy: %+v", rep)
	}
	if rep.Cells != 1 || rep.Manifests != 1 || rep.Sidecars != 1 {
		t.Fatalf("counts = %d/%d/%d", rep.Cells, rep.Manifests, rep.Sidecars)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("clean store findings: %v", findKinds(rep))
	}
}

func TestFsckFindsAndRepairsDamage(t *testing.T) {
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
	// Damage 1: a torn tmp file.
	if err := os.WriteFile(filepath.Join(dir, ".cell-torn.tmp"), []byte(`{"partial`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Damage 2: a corrupt cell (truncated valid bytes) under a store name.
	goodBytes, err := os.ReadFile(s.CellPath(k.Fingerprint()))
	if err != nil {
		t.Fatal(err)
	}
	corruptName := "c-" + strings.Repeat("ab", 16) + ".json"
	if err := os.WriteFile(filepath.Join(dir, corruptName), goodBytes[:len(goodBytes)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// Damage 3: a valid cell stored under the wrong fingerprint.
	wrongName := "c-" + strings.Repeat("cd", 16) + ".json"
	if err := os.WriteFile(filepath.Join(dir, wrongName), goodBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	// Damage 4: a corrupt manifest.
	badManifest := "m-" + strings.Repeat("ef", 16) + ".json"
	if err := os.WriteFile(filepath.Join(dir, badManifest), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Fsck(FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy() {
		t.Fatalf("damaged store reported healthy: %+v", rep)
	}
	if rep.Damage != 4 || rep.Repaired != 0 {
		t.Fatalf("damage/repaired = %d/%d, findings %v", rep.Damage, rep.Repaired, findKinds(rep))
	}
	for _, kind := range []string{FindTornTmp, FindCorruptCell, FindMismatchedCell, FindCorruptManifest} {
		if !hasKind(rep, kind) {
			t.Fatalf("missing finding %s in %v", kind, findKinds(rep))
		}
	}

	// Repair quarantines all four; the store is healthy afterwards and
	// the good cell+manifest survive untouched.
	rep, err = s.Fsck(FsckOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() || rep.Repaired != 4 {
		t.Fatalf("repair run: %+v", rep)
	}
	rep, err = s.Fsck(FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() || len(rep.Findings) != 0 || rep.Cells != 1 {
		t.Fatalf("post-repair store not clean: %+v", rep)
	}
	if _, ok := s.Load(k.Addr()); !ok {
		t.Fatal("repair lost the healthy cell")
	}
	// The quarantined files are all present in quarantine/.
	qents, err := os.ReadDir(filepath.Join(dir, QuarantineDir))
	if err != nil || len(qents) != 4 {
		t.Fatalf("quarantine dir: %v, %v", qents, err)
	}
}

func TestFsckTmpAgeSkipsFreshWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".cell-live.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Fsck(FsckOptions{TmpAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() || len(rep.Findings) != 0 {
		t.Fatalf("fresh tmp flagged despite TmpAge: %+v", rep)
	}
	rep, err = s.Fsck(FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy() || !hasKind(rep, FindTornTmp) {
		t.Fatalf("zero TmpAge must flag every tmp: %+v", rep)
	}
}

func TestFsckCrossChecks(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A manifest whose only cell is absent → incomplete-grid.
	if err := s.SaveManifest(testManifest()); err != nil {
		t.Fatal(err)
	}
	// A healthy cell no manifest references → orphan-cell.
	orphan := testKey()
	orphan.Seed = 99
	if err := s.SaveCell(orphan, testResult()); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Fsck(FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("informational findings must not be damage: %+v", rep)
	}
	if !hasKind(rep, FindIncompleteGrid) || !hasKind(rep, FindOrphanCell) {
		t.Fatalf("findings = %v", findKinds(rep))
	}
}

func TestFsckIgnoresStaleSchemaAndForeign(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Legacy schema-1 whole-grid blob (bare hex name).
	legacy := strings.Repeat("12", 16) + ".json"
	if err := os.WriteFile(filepath.Join(dir, legacy), []byte(`{"schema":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A stale-schema cell.
	stale := "c-" + strings.Repeat("34", 16) + ".json"
	if err := os.WriteFile(filepath.Join(dir, stale), []byte(`{"schema":1,"key":{},"result":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A file with a name the store could never produce.
	if err := os.WriteFile(filepath.Join(dir, ".hidden-notes"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Fsck(FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("stale/foreign files must be informational: %+v", rep)
	}
	staleCount := 0
	for _, f := range rep.Findings {
		if f.Kind == FindStaleSchema {
			staleCount++
		}
	}
	if staleCount != 2 || !hasKind(rep, FindForeign) {
		t.Fatalf("findings = %v", findKinds(rep))
	}
}

func TestFsckDeterministicOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{".b.tmp", ".a.tmp", "c-" + strings.Repeat("ff", 16) + ".json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep1, err := s.Fsck(FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := s.Fsck(FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep1.Findings) != 3 {
		t.Fatalf("findings = %v", findKinds(rep1))
	}
	for i := range rep1.Findings {
		if rep1.Findings[i] != rep2.Findings[i] {
			t.Fatalf("nondeterministic report:\n%v\n%v", rep1.Findings, rep2.Findings)
		}
		if i > 0 && rep1.Findings[i].File < rep1.Findings[i-1].File {
			t.Fatalf("unsorted findings: %+v", rep1.Findings)
		}
	}
}

// TestPruneSkipsQuarantine: a quarantined cell stays where fsck -repair
// put it — Prune leaves the quarantine directory alone, and the cell
// never reads back as a hit.
func TestPruneSkipsQuarantine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCell(testKey(), testResult()); err != nil {
		t.Fatal(err)
	}
	// Corrupt a second cell and quarantine it.
	bad := "c-" + strings.Repeat("aa", 16) + ".json"
	if err := os.WriteFile(filepath.Join(dir, bad), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fsck(FsckOptions{Repair: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, bad)); !os.IsNotExist(err) {
		t.Fatal("repair left the corrupt cell in the store")
	}
	if n, err := s.Prune(0); err != nil || n != 0 {
		t.Fatalf("Prune = %d, %v; want nothing removed", n, err)
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, bad)); err != nil {
		t.Fatalf("prune touched quarantine: %v", err)
	}
	if _, ok := s.Load(testKey().Addr()); !ok {
		t.Fatal("prune dropped the healthy cell")
	}
}
