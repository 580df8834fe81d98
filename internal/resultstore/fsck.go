// Store verification and repair: Fsck walks a store directory the way
// an offline filesystem checker walks a disk — every file is
// classified, damaged entries are reported (and, on request,
// quarantined so the next sweep recomputes exactly the damaged cells),
// and cross-checks diff each manifest's schedule against the cells
// actually present. Fsck judges each file by the store's one verdict
// (cellVerdict, manifestVerdict), so a file it calls clean is exactly
// one a read would hit. Reads never trust file names: a cell is only
// healthy if its bytes parse as a current-schema envelope whose key
// hashes back to the name's fingerprint.

package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// QuarantineDir is the subdirectory damaged entries are moved into by
// a repair run. It lives inside the store so the evidence travels with
// the directory, and every store walk (Prune, Coverage, Fsck itself)
// skips directories, so quarantined files can never be mistaken for
// live entries.
const QuarantineDir = "quarantine"

// Fsck finding kinds. Kinds marked damage make the store unhealthy;
// the rest are informational.
const (
	// FindTornTmp: a leftover ".tmp" file from an interrupted atomic
	// write (damage — the write it belonged to never became visible).
	FindTornTmp = "torn-tmp"
	// FindCorruptCell: a cell file whose bytes do not parse (damage).
	FindCorruptCell = "corrupt-cell"
	// FindMismatchedCell: a cell that parses but whose key hashes to a
	// different fingerprint than its file name claims (damage —
	// renamed by hand or cross-wired by a buggy copy).
	FindMismatchedCell = "mismatched-cell"
	// FindCorruptManifest: a manifest file whose bytes do not parse
	// (damage).
	FindCorruptManifest = "corrupt-manifest"
	// FindMisplacedManifest: a valid manifest stored under a file name
	// that is not the hash of its (grid, seed, schema) — LoadManifest
	// would never find it (damage).
	FindMisplacedManifest = "misplaced-manifest"
	// FindStaleSchema: an entry from another schema generation,
	// including legacy whole-grid blobs (informational — Prune's
	// business, reads already treat it as a miss).
	FindStaleSchema = "stale-schema"
	// FindOrphanCell: a healthy cell no valid manifest references
	// (informational — wasted space at worst).
	FindOrphanCell = "orphan-cell"
	// FindIncompleteGrid: a manifest whose schedule has absent or
	// unhealthy cells (informational — "resume will recompute these",
	// not damage; an interrupted sweep is incomplete, not broken).
	FindIncompleteGrid = "incomplete-grid"
	// FindForeign: a file the store did not name and that is not a
	// valid sidecar name either (informational — left alone).
	FindForeign = "foreign"
)

// findDetail explains each kind of flawed file.
var findDetail = map[string]string{
	FindTornTmp:           "leftover temp file from an interrupted atomic write",
	FindCorruptCell:       "cell bytes do not parse as a cell envelope",
	FindMismatchedCell:    "cell key hashes to another fingerprint than the file's name",
	FindCorruptManifest:   "manifest bytes do not parse as a manifest envelope",
	FindMisplacedManifest: "manifest's grid and seed belong at another file name",
	FindStaleSchema:       fmt.Sprintf("entry from another schema generation (current is %d)", SchemaVersion),
}

// FsckOptions configures a store check.
type FsckOptions struct {
	// Repair moves damaged entries into QuarantineDir so subsequent
	// reads miss cleanly and the next sweep recomputes them.
	Repair bool
	// TmpAge ignores ".tmp" files younger than this, in case a live
	// process is mid-write. Zero flags every temp file — right for an
	// offline check, which is what fsck is.
	TmpAge time.Duration
}

// FsckFinding is one reported problem (or notable fact).
type FsckFinding struct {
	// File is the name relative to the store directory.
	File string
	// Kind is one of the Find* constants.
	Kind string
	// Detail is a human-readable explanation.
	Detail string
	// Damage reports whether the finding makes the store unhealthy.
	Damage bool
	// Repaired reports whether a repair run quarantined the file.
	Repaired bool
}

// FsckReport is the result of one store check.
type FsckReport struct {
	// Cells, Manifests and Sidecars count the store files scanned
	// (healthy or not), by class.
	Cells, Manifests, Sidecars int
	// Findings lists problems and notable facts in deterministic
	// (file-name, then kind) order.
	Findings []FsckFinding
	// Damage counts damage findings; Repaired counts how many of them
	// a repair run quarantined.
	Damage, Repaired int
}

// Healthy reports whether the store has no unrepaired damage.
// Informational findings (incomplete grids, orphans, stale entries)
// never make a store unhealthy: an interrupted sweep is supposed to
// look exactly like that.
func (r FsckReport) Healthy() bool { return r.Damage == r.Repaired }

// Fsck verifies every file in the store directory and cross-checks
// manifests against the cells present. With opts.Repair it quarantines
// damaged entries (moving them into QuarantineDir) so the store is
// healthy afterwards and a resume run recomputes exactly what was
// lost. The walk is read-only apart from those moves; findings are
// ordered deterministically so two checks of the same store produce
// identical reports.
func (s *Store) Fsck(opts FsckOptions) (FsckReport, error) {
	var rep FsckReport
	if s == nil {
		return rep, fmt.Errorf("resultstore: Fsck on a nil store")
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return rep, fmt.Errorf("resultstore: %w", err)
	}
	add := func(file, kind, detail string, damage bool) {
		rep.Findings = append(rep.Findings, FsckFinding{File: file, Kind: kind, Detail: detail, Damage: damage})
		if damage {
			rep.Damage++
		}
	}
	healthyCells := map[string]bool{} // fingerprint → healthy cell present
	var manifests []Manifest
	now := time.Now()
	for _, ent := range entries {
		if ent.IsDir() {
			continue // quarantine/ and any other directory
		}
		name := ent.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			if opts.TmpAge > 0 {
				info, ierr := ent.Info()
				if ierr == nil && now.Sub(info.ModTime()) < opts.TmpAge {
					continue // possibly a write in flight
				}
			}
			add(name, FindTornTmp, findDetail[FindTornTmp], true)
		case storeFilePattern.MatchString(name):
			b, rerr := os.ReadFile(filepath.Join(s.dir, name))
			if rerr != nil {
				return rep, fmt.Errorf("resultstore: fsck read %s: %w", name, rerr)
			}
			switch name[:2] {
			case "c-":
				rep.Cells++
			case "m-":
				rep.Manifests++
			}
			switch verdict, m := fileVerdict(name, b); {
			case verdict != "":
				add(name, verdict, findDetail[verdict], verdict != FindStaleSchema)
			case m != nil:
				manifests = append(manifests, *m)
			default:
				healthyCells[name[2:34]] = true
			}
		case validSidecarName(name) == nil:
			rep.Sidecars++
		default:
			add(name, FindForeign, "not a store file or valid sidecar name; left alone", false)
		}
	}
	if opts.Repair {
		for i := range rep.Findings {
			f := &rep.Findings[i]
			if !f.Damage {
				continue
			}
			if err := s.quarantine(f.File); err != nil {
				return rep, err
			}
			f.Repaired = true
			rep.Repaired++
		}
	}
	// Cross-checks run after repair, so a quarantined corrupt cell
	// counts as missing from its grid — which is the truth a resume run
	// will see.
	referenced := map[string]bool{}
	for _, m := range manifests {
		for _, fp := range m.Cells {
			referenced[fp] = true
		}
		cov := s.Coverage(m)
		if !cov.Complete() {
			add(manifestName(m.Grid, m.Seed), FindIncompleteGrid,
				fmt.Sprintf("grid %q seed %d: %d/%d cells present; resume will recompute %d",
					m.Grid, m.Seed, cov.Done, cov.Total, len(cov.Missing)), false)
		}
	}
	orphans := make([]string, 0, len(healthyCells))
	for fp := range healthyCells {
		if !referenced[fp] {
			orphans = append(orphans, fp)
		}
	}
	sort.Strings(orphans)
	for _, fp := range orphans {
		add("c-"+fp+".json", FindOrphanCell, "healthy cell not referenced by any manifest", false)
	}
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		if rep.Findings[i].File != rep.Findings[j].File {
			return rep.Findings[i].File < rep.Findings[j].File
		}
		return rep.Findings[i].Kind < rep.Findings[j].Kind
	})
	return rep, nil
}

// quarantine moves a store-relative file into QuarantineDir.
func (s *Store) quarantine(name string) error {
	qdir := filepath.Join(s.dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("resultstore: quarantine: %w", err)
	}
	if err := os.Rename(filepath.Join(s.dir, name), filepath.Join(qdir, name)); err != nil {
		return fmt.Errorf("resultstore: quarantine %s: %w", name, err)
	}
	return nil
}
