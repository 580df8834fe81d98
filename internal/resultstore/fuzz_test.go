package resultstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCellFile writes arbitrary bytes as the cell file of testKey and
// checks that the read path and fsck agree on them: LoadCell hits
// exactly when Fsck finds neither damage nor a stale schema in that
// file.
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
	// One store for every input: each run overwrites the only file in it.
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	k := testKey()
	path := s.CellPath(k)
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, hit := s.LoadCell(k)
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
		if hit != clean {
			t.Fatalf("LoadCell hit = %v, but fsck findings %+v for %q", hit, rep.Findings, b)
		}
	})
}
