package resultstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCellFile writes arbitrary bytes as the cell file of testKey and
// checks that every reader of the store gives them one verdict: Load
// hits (comparing the decoded key with its own field by field),
// CellBytesByFingerprint returns the bytes, Coverage counts the cell
// done, Fsck (hashing the decoded key) finds neither damage nor a stale
// schema in the file, Prune(0) keeps it, and IngestCell of the same
// bytes answers IngestIdentical — all of these or none.
func FuzzCellFile(f *testing.F) {
	valid, err := EncodeCell(testKey(), testResult())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte("{}"))
	f.Add(valid[:len(valid)/2])
	// The envelope's schema (written first) stale, the key's current.
	cur := fmt.Sprintf(`"schema":%d`, SchemaVersion)
	f.Add(bytes.Replace(valid, []byte(cur), []byte(fmt.Sprintf(`"schema":%d`, SchemaVersion-1)), 1))
	// A healthy envelope of another key, at this key's path.
	other, err := EncodeCell(keyFor("densenet121"), testResult())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(other)
	// The key without its coordinates, as null and as []: Load, which
	// sizes the decoded Cell from its own key, must still miss them.
	for _, cell := range [][]AxisValue{nil, {}} {
		k := testKey()
		k.Cell = cell
		b, err := EncodeCell(k, testResult())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// One store for every input: each run overwrites the only file in it.
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	k := testKey()
	fp := k.Fingerprint()
	path := s.CellPath(k.Fingerprint())
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, hit := s.Load(k.Addr())
		got, served := s.CellBytesByFingerprint(fp)
		done := s.Coverage(Manifest{Cells: []string{fp}}).Done == 1
		rep, err := s.Fsck(FsckOptions{})
		if err != nil {
			t.Fatal(err)
		}
		clean := true
		for _, fd := range rep.Findings {
			if fd.File == filepath.Base(path) && (fd.Damage || fd.Kind == FindStaleSchema) {
				clean = false
			}
		}
		if _, err := s.Prune(0); err != nil {
			t.Fatal(err)
		}
		_, err = os.Stat(path)
		kept := err == nil
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		status, ingestErr := s.IngestCell(fp, b)
		identical := ingestErr == nil && status == IngestIdentical
		verdicts := map[string]bool{
			"CellBytesByFingerprint": served && bytes.Equal(got, b),
			"Coverage":               done,
			"Fsck":                   clean,
			"IngestCell":             identical,
			"Prune":                  kept,
		}
		for reader, ok := range verdicts {
			if ok != hit {
				t.Fatalf("Load hit = %v but %s says %v (all: %v) for %q", hit, reader, ok, verdicts, b)
			}
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, b) {
			t.Fatalf("IngestCell of the file's own bytes rewrote it: %q, %v", after, err)
		}
	})
}
