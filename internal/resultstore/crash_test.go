package resultstore

// Crash-consistency battery: kill a store write at every faultline
// point between "decided to persist" and "entry visible", then prove
// the three recovery guarantees — the store reads the cell as a miss
// (never a wrong value), a plain rewrite heals it, and Fsck
// reports/repairs whatever the simulated crash left on the floor.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fp8quant/internal/faultline"
)

// armOnce arms a single always-fire rule on one failpoint and disarms
// on cleanup.
func armOnce(t *testing.T, pattern string, kind faultline.Kind, frac float64) {
	t.Helper()
	err := faultline.Arm(faultline.Plan{Rules: []faultline.Rule{
		{Pattern: pattern, Kind: kind, Frac: frac, Max: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultline.Disarm)
}

// tmpFiles lists the ".tmp" leftovers in a store directory.
func tmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			out = append(out, e.Name())
		}
	}
	return out
}

func TestCrashAtEverySaveStage(t *testing.T) {
	stages := []struct {
		point     string
		kind      faultline.Kind
		frac      float64
		wantTmp   bool // the simulated crash leaves a temp file behind
		wantFinal bool // a final cell file exists afterwards
	}{
		// Before the temp file exists: nothing on disk at all.
		{"resultstore.save.create", faultline.KindErr, 0, false, false},
		// Torn mid-write: a partial temp file, no final file.
		{"resultstore.save.temp", faultline.KindTorn, 0.5, true, false},
		// ENOSPC during the write: temp left, no final file.
		{"resultstore.save.temp", faultline.KindENOSPC, 0, true, false},
		// Between a complete temp write and the rename: temp left.
		{"resultstore.save.rename", faultline.KindErr, 0, true, false},
		// Silent corruption: the write "succeeds", final file is torn.
		{"resultstore.save.temp", faultline.KindCorrupt, 0.5, false, true},
	}
	for _, st := range stages {
		name := st.point + "/" + string(st.kind)
		t.Run(strings.ReplaceAll(name, ".", "_"), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			k, r := testKey(), testResult()
			armOnce(t, st.point, st.kind, st.frac)
			saveErr := s.SaveCell(k, r)
			if st.kind == faultline.KindCorrupt {
				if saveErr != nil {
					t.Fatalf("corrupt save must look successful, got %v", saveErr)
				}
			} else if !errors.Is(saveErr, faultline.ErrInjected) {
				t.Fatalf("save error = %v, want injected", saveErr)
			}

			// Guarantee 1: the store never serves a damaged cell.
			if _, ok := s.Load(k.Addr()); ok {
				t.Fatal("store served a cell whose write crashed")
			}
			if got := tmpFiles(t, dir); (len(got) > 0) != st.wantTmp {
				t.Fatalf("tmp leftovers = %v, want present=%v", got, st.wantTmp)
			}
			if _, err := os.Stat(s.CellPath(k.Fingerprint())); (err == nil) != st.wantFinal {
				t.Fatalf("final file present=%v, want %v", err == nil, st.wantFinal)
			}

			// Guarantee 2: Fsck sees exactly the damage the crash left,
			// and repair quarantines it.
			rep, err := s.Fsck(FsckOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wantDamage := 0
			if st.wantTmp {
				wantDamage++
			}
			if st.wantFinal {
				wantDamage++ // the corrupt final cell
			}
			if rep.Damage != wantDamage {
				t.Fatalf("fsck damage = %d (%v), want %d", rep.Damage, rep.Findings, wantDamage)
			}
			if wantDamage > 0 {
				if rep.Healthy() {
					t.Fatal("fsck called a damaged store healthy")
				}
				rep, err = s.Fsck(FsckOptions{Repair: true})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Healthy() || rep.Repaired != wantDamage {
					t.Fatalf("repair: %+v", rep)
				}
			}

			// Guarantee 3: a plain rewrite heals the cell completely.
			if err := s.SaveCell(k, r); err != nil {
				t.Fatalf("healing rewrite: %v", err)
			}
			got, ok := s.Load(k.Addr())
			if !ok {
				t.Fatal("healed cell still missing")
			}
			if got.QAcc != r.QAcc {
				t.Fatalf("healed cell differs: %v != %v", got.QAcc, r.QAcc)
			}
			rep, err = s.Fsck(FsckOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Healthy() || len(tmpFiles(t, dir)) != 0 {
				t.Fatalf("store not clean after heal: %+v, tmp=%v", rep, tmpFiles(t, dir))
			}
		})
	}
}

// TestCrashDuringManifestWrites: a manifest write that crashes after
// its temp file exists (a torn temp write, a failed rename) leaves that
// temp file as evidence; a retry heals, and fsck repair clears the
// leftover without touching a foreign file next to it (an older
// coordinator's costmodel.json).
func TestCrashDuringManifestWrites(t *testing.T) {
	for _, point := range []string{"resultstore.manifest.rename", "resultstore.manifest.temp"} {
		t.Run(strings.ReplaceAll(point, ".", "_"), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			foreign := filepath.Join(dir, "costmodel.json")
			legacy := []byte(`{"schema":2,"models":{},"all":{"ema_ms":0,"n":0}}`)
			if err := os.WriteFile(foreign, legacy, 0o644); err != nil {
				t.Fatal(err)
			}
			kind := faultline.KindErr
			var frac float64
			if strings.HasSuffix(point, ".temp") {
				kind, frac = faultline.KindTorn, 0.5
			}
			armOnce(t, point, kind, frac)
			write := func() error { return s.SaveManifest(testManifest()) }
			if err := write(); !errors.Is(err, faultline.ErrInjected) {
				t.Fatalf("write error = %v, want injected", err)
			}
			if len(tmpFiles(t, dir)) == 0 {
				t.Fatal("crash left no tmp evidence")
			}
			// Retry heals; fsck repair clears the leftover.
			if err := write(); err != nil {
				t.Fatalf("healing rewrite: %v", err)
			}
			rep, err := s.Fsck(FsckOptions{Repair: true})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Healthy() {
				t.Fatalf("post-heal fsck: %+v", rep)
			}
			if len(tmpFiles(t, dir)) != 0 {
				t.Fatal("repair left tmp files behind")
			}
			if b, err := os.ReadFile(foreign); err != nil || !bytes.Equal(b, legacy) {
				t.Fatalf("foreign file after repair = %q, %v; want it untouched", b, err)
			}
			if _, ok := s.LoadManifest(testManifest().Grid, testManifest().Seed); !ok {
				t.Fatal("healed manifest does not load")
			}
		})
	}
}

// TestInjectedLoadFaultIsAMiss proves a read-side fault can only cost
// a recompute, never return wrong data.
func TestInjectedLoadFaultIsAMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k, r := testKey(), testResult()
	if err := s.SaveCell(k, r); err != nil {
		t.Fatal(err)
	}
	armOnce(t, "resultstore.load.read", faultline.KindErr, 0)
	if _, ok := s.Load(k.Addr()); ok {
		t.Fatal("injected read fault did not miss")
	}
	// The rule's budget (Max:1) is spent; the next read succeeds.
	if got, ok := s.Load(k.Addr()); !ok || got.QAcc != r.QAcc {
		t.Fatalf("store did not recover after fault: ok=%v", ok)
	}
}

// TestIngestFaultsAreRetryable proves the ingest path distinguishes
// injected I/O faults (retryable) from true conflicts (permanent).
func TestIngestFaultsAreRetryable(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k, r := testKey(), testResult()
	payload, err := EncodeCell(k, r)
	if err != nil {
		t.Fatal(err)
	}
	fp := k.Fingerprint()
	armOnce(t, "resultstore.ingest.begin", faultline.KindErr, 0)
	if _, err := s.IngestCell(fp, payload); !errors.Is(err, faultline.ErrInjected) {
		t.Fatalf("ingest error = %v, want injected", err)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), "c-"+fp+".json")); !os.IsNotExist(err) {
		t.Fatal("failed ingest left a cell behind")
	}
	// Retry (budget spent) stores it.
	status, err := s.IngestCell(fp, payload)
	if err != nil || status != IngestStored {
		t.Fatalf("retry = %v, %v", status, err)
	}
	// A true conflict is not an injected fault and wraps ErrCellConflict.
	r2 := r
	r2.QAcc = 0.5
	payload2, err := EncodeCell(k, r2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.IngestCell(fp, payload2)
	if !IsCellConflict(err) || errors.Is(err, faultline.ErrInjected) {
		t.Fatalf("conflict error = %v", err)
	}
}
