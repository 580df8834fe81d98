package resultstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
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
	rep, err := s.Fsck(FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() || rep.Damage != 0 {
		t.Fatalf("clean store unhealthy: %+v", rep)
	}
	if rep.Cells != 1 || rep.Manifests != 1 {
		t.Fatalf("counts = %d/%d", rep.Cells, rep.Manifests)
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

// classStore is a store holding one file of every class the walk
// tells apart, with the names the checks below expect.
type classStore struct {
	s        *Store
	dir      string
	manifest Manifest // the healthy one
	// file names by role
	refNew, refOld, orphanNew, orphanOld   string // healthy cells
	corrupt, mismatched, staleCell, legacy string // flawed cells
	badManifest, misplaced, goodManifest   string // manifests
	youngTmp, oldTmp, costModel, foreign   string
	quarantined                            string // earlier evidence at corrupt's quarantine name
}

// newClassStore builds the store: referenced and orphan cells, each
// new and an hour older than maxAge; a corrupt, a key-mismatched and
// a stale-schema cell and a legacy whole-grid blob; a healthy manifest
// (scheduling both referenced cells, the corrupt one and an absent
// one), a corrupt and a misplaced one; temp files either side of
// tmpGrace; two foreign files (an older coordinator's costmodel.json
// and a hidden one) and a quarantine directory that
// already holds a file under the corrupt cell's name.
func newClassStore(t *testing.T, maxAge time.Duration) classStore {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cs := classStore{s: s, dir: dir}
	name := func(k CellKey) string { return filepath.Base(s.CellPath(k.Fingerprint())) }
	write := func(file string, b []byte, age time.Duration) string {
		t.Helper()
		path := filepath.Join(dir, file)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if age > 0 {
			old := time.Now().Add(-age)
			if err := os.Chtimes(path, old, old); err != nil {
				t.Fatal(err)
			}
		}
		return file
	}
	healthy := func(k CellKey, age time.Duration) string {
		t.Helper()
		b, err := EncodeCell(k, testResult())
		if err != nil {
			t.Fatal(err)
		}
		return write(name(k), b, age)
	}
	old := maxAge + time.Hour
	cs.refNew = healthy(keyFor("ref-new"), 0)
	cs.refOld = healthy(keyFor("ref-old"), old)
	cs.orphanNew = healthy(keyFor("orphan-new"), 0)
	cs.orphanOld = healthy(keyFor("orphan-old"), old)
	valid, _ := EncodeCell(keyFor("corrupt"), testResult())
	cs.corrupt = write(name(keyFor("corrupt")), valid[:len(valid)/2], old)
	other, _ := EncodeCell(keyFor("someone-else"), testResult())
	cs.mismatched = write(name(keyFor("mismatched")), other, old)
	stale, _ := EncodeCell(keyFor("stale"), testResult())
	stale = bytes.Replace(stale, []byte(fmt.Sprintf(`"schema":%d`, SchemaVersion)), []byte(fmt.Sprintf(`"schema":%d`, SchemaVersion-1)), 1)
	cs.staleCell = write(name(keyFor("stale")), stale, old)
	cs.legacy = write(strings.Repeat("12", 16)+".json", []byte(`{"schema":1}`), old)

	cs.manifest = Manifest{Grid: "every-class", Seed: 3, Cells: []string{
		keyFor("ref-new").Fingerprint(), keyFor("ref-old").Fingerprint(),
		keyFor("corrupt").Fingerprint(), keyFor("absent").Fingerprint(),
	}}
	if err := s.SaveManifest(cs.manifest); err != nil {
		t.Fatal(err)
	}
	cs.manifest.Schema = SchemaVersion
	cs.goodManifest = filepath.Base(s.ManifestPath(cs.manifest.Grid, cs.manifest.Seed))
	mb, err := os.ReadFile(s.ManifestPath(cs.manifest.Grid, cs.manifest.Seed))
	if err != nil {
		t.Fatal(err)
	}
	cs.misplaced = write("m-"+strings.Repeat("0a", 16)+".json", mb, old)
	cs.badManifest = write("m-"+strings.Repeat("ef", 16)+".json", []byte("not json"), old)

	cs.youngTmp = write(".cell-young.tmp", []byte(`{"part`), 0)
	cs.oldTmp = write(".cell-old.tmp", []byte(`{"part`), 2*tmpGrace)
	cs.costModel = write("costmodel.json", []byte(`{}`), old)
	cs.foreign = write(".notes", []byte("mine"), old)
	if err := os.Mkdir(filepath.Join(dir, QuarantineDir), 0o755); err != nil {
		t.Fatal(err)
	}
	cs.quarantined = write(filepath.Join(QuarantineDir, cs.corrupt), []byte("earlier damage"), old)
	return cs
}

// files lists the store directory's names, sorted.
func (cs classStore) files(t *testing.T) []string {
	t.Helper()
	ents, err := os.ReadDir(cs.dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

// finding is the comparable part of an FsckFinding.
type finding struct {
	file, kind       string
	damage, repaired bool
}

func findings(rep FsckReport) []finding {
	var out []finding
	for _, f := range rep.Findings {
		out = append(out, finding{f.File, f.Kind, f.Damage, f.Repaired})
	}
	return out
}

func sortedFindings(fs ...finding) []finding {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].file != fs[j].file {
			return fs[i].file < fs[j].file
		}
		return fs[i].kind < fs[j].kind
	})
	return fs
}

func sortedNames(names ...string) []string {
	sort.Strings(names)
	return names
}

// TestOneWalkEveryFileClass holds Fsck, Fsck{Repair}, Prune(0) and
// Prune(maxAge) to fixed answers on a store with a file of every
// class, so the one walk behind them cannot drift from what each tool
// promises.
func TestOneWalkEveryFileClass(t *testing.T) {
	const maxAge = time.Hour
	// What every check of the full store reports but never repairs.
	informational := func(cs classStore) []finding {
		return []finding{
			{cs.costModel, FindForeign, false, false},
			{cs.foreign, FindForeign, false, false},
			{cs.legacy, FindStaleSchema, false, false},
			{cs.staleCell, FindStaleSchema, false, false},
			{cs.orphanNew, FindOrphanCell, false, false},
			{cs.orphanOld, FindOrphanCell, false, false},
			{cs.goodManifest, FindIncompleteGrid, false, false},
		}
	}
	damage := func(cs classStore, repaired bool) []finding {
		return []finding{
			{cs.oldTmp, FindTornTmp, true, repaired},
			{cs.youngTmp, FindTornTmp, true, repaired},
			{cs.corrupt, FindCorruptCell, true, repaired},
			{cs.mismatched, FindMismatchedCell, true, repaired},
			{cs.badManifest, FindCorruptManifest, true, repaired},
			{cs.misplaced, FindMisplacedManifest, true, repaired},
		}
	}

	t.Run("Fsck", func(t *testing.T) {
		cs := newClassStore(t, maxAge)
		before := cs.files(t)
		rep, err := cs.s.Fsck(FsckOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := sortedFindings(append(informational(cs), damage(cs, false)...)...)
		if got := findings(rep); !reflect.DeepEqual(got, want) {
			t.Errorf("findings\n got %v\nwant %v", got, want)
		}
		if rep.Cells != 7 || rep.Manifests != 3 || rep.Damage != 6 || rep.Repaired != 0 || rep.Healthy() {
			t.Errorf("report = %d cells, %d manifests, %d damage, %d repaired",
				rep.Cells, rep.Manifests, rep.Damage, rep.Repaired)
		}
		if after := cs.files(t); !reflect.DeepEqual(after, before) {
			t.Errorf("a check without Repair changed the store: %v → %v", before, after)
		}
		// The incomplete-grid counts are Coverage's.
		cov := cs.s.Coverage(cs.manifest)
		wantDetail := fmt.Sprintf("grid %q seed %d: %d/%d cells present; resume will recompute %d",
			cs.manifest.Grid, cs.manifest.Seed, cov.Done, cov.Total, len(cov.Missing))
		for _, f := range rep.Findings {
			if f.Kind == FindIncompleteGrid && f.Detail != wantDetail {
				t.Errorf("incomplete-grid detail %q, Coverage says %q", f.Detail, wantDetail)
			}
		}
		if cov.Done != 2 || cov.Total != 4 {
			t.Errorf("Coverage = %+v, want 2 of 4", cov)
		}
		// A fresh temp file is possibly a write in flight.
		rep, err = cs.s.Fsck(FsckOptions{TmpAge: tmpGrace})
		if err != nil || rep.Damage != 5 || hasFinding(rep, cs.youngTmp) {
			t.Errorf("Fsck{TmpAge: tmpGrace} = %d damage, %v (young tmp reported: %v)", rep.Damage, err, hasFinding(rep, cs.youngTmp))
		}
	})

	t.Run("FsckRepair", func(t *testing.T) {
		cs := newClassStore(t, maxAge)
		rep, err := cs.s.Fsck(FsckOptions{Repair: true})
		if err != nil {
			t.Fatal(err)
		}
		want := sortedFindings(append(informational(cs), damage(cs, true)...)...)
		if got := findings(rep); !reflect.DeepEqual(got, want) {
			t.Errorf("findings\n got %v\nwant %v", got, want)
		}
		if rep.Damage != 6 || rep.Repaired != 6 || !rep.Healthy() {
			t.Errorf("repair run: %d damage, %d repaired", rep.Damage, rep.Repaired)
		}
		wantFiles := sortedNames(cs.refNew, cs.refOld, cs.orphanNew, cs.orphanOld, cs.staleCell, cs.legacy,
			cs.goodManifest, cs.costModel, cs.foreign, QuarantineDir)
		if got := cs.files(t); !reflect.DeepEqual(got, wantFiles) {
			t.Errorf("after repair\n got %v\nwant %v", got, wantFiles)
		}
		qents, err := os.ReadDir(filepath.Join(cs.dir, QuarantineDir))
		if err != nil || len(qents) != 7 {
			t.Errorf("quarantine holds %d files (%v), want the 6 repaired and the earlier one", len(qents), err)
		}
		if b, err := os.ReadFile(filepath.Join(cs.dir, cs.quarantined)); err != nil || string(b) != "earlier damage" {
			t.Errorf("earlier evidence = %q, %v; want it kept", b, err)
		}
		if _, err := os.Stat(filepath.Join(cs.dir, cs.quarantined+".1")); err != nil {
			t.Errorf("the corrupt cell is not quarantined beside the earlier evidence: %v", err)
		}
		rep, err = cs.s.Fsck(FsckOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := findings(rep), sortedFindings(informational(cs)...); !reflect.DeepEqual(got, want) {
			t.Errorf("after repair findings\n got %v\nwant %v", got, want)
		}
	})

	// Prune removes exactly what fsck calls damage or stale, minus the
	// temp file too young to be abandoned; with maxAge also the orphan
	// older than it. Referenced cells, manifests, foreign
	// files and quarantine/ stay whatever their age.
	kept := func(cs classStore) []string {
		return []string{cs.refNew, cs.refOld, cs.orphanNew, cs.goodManifest, cs.youngTmp, cs.costModel, cs.foreign, QuarantineDir}
	}
	t.Run("Prune0", func(t *testing.T) {
		cs := newClassStore(t, maxAge)
		n, err := cs.s.Prune(0)
		if err != nil || n != 7 {
			t.Errorf("Prune(0) = %d, %v; want 7, nil", n, err)
		}
		if got, want := cs.files(t), sortedNames(append(kept(cs), cs.orphanOld)...); !reflect.DeepEqual(got, want) {
			t.Errorf("after Prune(0)\n got %v\nwant %v", got, want)
		}
	})
	t.Run("PruneMaxAge", func(t *testing.T) {
		cs := newClassStore(t, maxAge)
		n, err := cs.s.Prune(maxAge)
		if err != nil || n != 8 {
			t.Errorf("Prune(maxAge) = %d, %v; want 8, nil", n, err)
		}
		if got, want := cs.files(t), sortedNames(kept(cs)...); !reflect.DeepEqual(got, want) {
			t.Errorf("after Prune(maxAge)\n got %v\nwant %v", got, want)
		}
		if _, err := os.Stat(filepath.Join(cs.dir, cs.quarantined)); err != nil {
			t.Errorf("Prune touched quarantine/: %v", err)
		}
	})
}

func hasFinding(rep FsckReport, file string) bool {
	for _, f := range rep.Findings {
		if f.File == file {
			return true
		}
	}
	return false
}
