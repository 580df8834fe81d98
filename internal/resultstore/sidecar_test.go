package resultstore

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"fp8quant/internal/evalx"
)

func sidecarTestKey(model string) CellKey {
	return CellKey{
		Grid: "sidecar-test",
		Cell: []AxisValue{{Axis: "model", Value: model}},
		Seed: 5, Schema: SchemaVersion,
	}
}

func TestSidecarRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LoadSidecar("costmodel.json"); ok {
		t.Fatal("absent sidecar loaded")
	}
	want := []byte(`{"schema":1}`)
	if err := s.SaveSidecar("costmodel.json", want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.LoadSidecar("costmodel.json")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("LoadSidecar = %q/%v, want %q", got, ok, want)
	}
	// Overwrite is atomic and last-write-wins.
	want2 := []byte(`{"schema":1,"n":2}`)
	if err := s.SaveSidecar("costmodel.json", want2); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.LoadSidecar("costmodel.json"); !bytes.Equal(got, want2) {
		t.Fatalf("after overwrite = %q, want %q", got, want2)
	}
}

func TestSidecarNameValidation(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{
		"",                                       // empty
		".hidden",                                // hidden
		"../escape.json",                         // path traversal
		"a/b.json",                               // separator
		"x.tmp",                                  // reserved in-flight suffix
		"c-" + strings.Repeat("0", 32) + ".json", // store cell pattern
		"m-" + strings.Repeat("a", 32) + ".json", // store manifest pattern
	}
	for _, name := range bad {
		if err := s.SaveSidecar(name, []byte("x")); err == nil {
			t.Errorf("SaveSidecar(%q) succeeded, want rejection", name)
		}
		if _, ok := s.LoadSidecar(name); ok {
			t.Errorf("LoadSidecar(%q) succeeded, want rejection", name)
		}
	}
}

// TestSidecarSurvivesPrune: sidecars are per-deployment state, not
// results — Prune must not delete them, and a cell ingested next to
// one leaves it untouched.
func TestSidecarSurvivesPrune(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSidecar("costmodel.json", []byte(`{"schema":1}`)); err != nil {
		t.Fatal(err)
	}
	k := sidecarTestKey("m1")
	payload, err := EncodeCell(k, evalx.Result{Model: "m1", QAcc: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestCell(k.Fingerprint(), payload); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Prune(0); err != nil || n != 0 {
		t.Fatalf("Prune = %d, %v; want nothing removed", n, err)
	}
	if got, ok := s.LoadSidecar("costmodel.json"); !ok || string(got) != `{"schema":1}` {
		t.Fatal("prune or ingest touched a sidecar")
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
	k := sidecarTestKey("m2")
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
	wrong := sidecarTestKey("other").Fingerprint()
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
	if err := os.WriteFile(s.SidecarPath("c-"+fp+".json"), []byte("torn"), 0o644); err != nil { //nolint — deliberate corruption
		t.Fatal(err)
	}
	if st, err := s.IngestCell(fp, payload); err != nil || st != IngestStored {
		t.Fatalf("ingest over corrupt dst = %v/%v, want stored", st, err)
	}
	if got, ok := s.CellBytesByFingerprint(fp); !ok || !bytes.Equal(got, payload) {
		t.Fatal("store does not hold the valid payload after corruption recovery")
	}
}
