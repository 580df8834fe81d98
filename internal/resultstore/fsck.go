// Store verification, repair and pruning: one walk of the store
// directory (scan) reads each file once and classifies it the way an
// offline filesystem checker classifies a disk. Fsck reports the walk
// — damaged entries (and, on request, quarantines them so the next
// sweep recomputes exactly the damaged cells), plus cross-checks of
// each manifest's schedule against the healthy cells the walk found —
// and Prune removes from it. Both judge each file by the store's one
// verdict (cellVerdict, manifestVerdict), so a file Fsck calls clean is
// exactly one a read would hit and Prune keeps. Reads never trust file names: a cell is only
// healthy if its bytes parse as a current-schema envelope whose key
// hashes back to the name's fingerprint.

package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// QuarantineDir is the subdirectory damaged entries are moved into by
// a repair run. It lives inside the store so the evidence travels with
// the directory, and the store's walk (scan, behind Fsck and Prune)
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
	// FindForeign: a file the store did not name, such as an older
	// coordinator's costmodel.json (informational — left alone).
	FindForeign = "foreign"
)

// findDetail explains each kind of finding about one file.
var findDetail = map[string]string{
	FindTornTmp:           "leftover temp file from an interrupted atomic write",
	FindCorruptCell:       "cell bytes do not parse as a cell envelope",
	FindMismatchedCell:    "cell key hashes to another fingerprint than the file's name",
	FindCorruptManifest:   "manifest bytes do not parse as a manifest envelope",
	FindMisplacedManifest: "manifest's grid and seed belong at another file name",
	FindStaleSchema:       fmt.Sprintf("entry from another schema generation (current is %d)", SchemaVersion),
	FindOrphanCell:        "healthy cell not referenced by any manifest",
	FindForeign:           "not a store file; left alone",
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
	// Cells and Manifests count the store files scanned (healthy or
	// not), by class.
	Cells, Manifests int
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

// tmpGrace is how old a temp file must be before Prune treats it as
// a leftover from a crashed process rather than a write in flight: an
// atomic write holds its temp file for milliseconds, so an hour-old
// one is certainly abandoned, while deleting a fresh one could race a
// concurrent process between CreateTemp and Rename.
const tmpGrace = time.Hour

// fileVerdict judges a store-named file by its bytes: a cell or a
// manifest by its own verdict, a legacy whole-grid blob as stale. A
// healthy manifest is returned, for the checks that need its schedule.
func fileVerdict(name string, b []byte) (string, *Manifest) {
	switch name[:2] {
	case "c-":
		_, verdict := cellVerdict(b, name[2:34], nil)
		return verdict, nil
	case "m-":
		m, verdict := manifestVerdict(name, b)
		if verdict != "" {
			return verdict, nil
		}
		return "", &m
	}
	return FindStaleSchema, nil
}

// storeScan is one walk of the store directory: every file read once
// and judged by fileVerdict. Fsck reports it and Prune removes from
// it, so the two tools cannot disagree about a file.
type storeScan struct {
	// files are the findings about single files, in directory order:
	// temp files at least the walk's tmpAge old, store-named files
	// whose verdict is not healthy, and foreign names.
	files []FsckFinding
	// cells are the healthy cells, by fingerprint.
	cells map[string]os.DirEntry
	// manifests are the healthy manifests.
	manifests []Manifest
	// orphans are, sorted, the fingerprints of the healthy cells no
	// healthy manifest references.
	orphans []string
	// cellFiles and manifestFiles count the files of each class,
	// healthy or not.
	cellFiles, manifestFiles int
	// unreadable holds one error per store-named file the walk could
	// not read.
	unreadable []error
}

// scan walks the store directory once. Directories (quarantine/
// included) are never store files; a ".tmp" file younger than tmpAge
// is possibly a write in flight and is left out.
func (s *Store) scan(tmpAge time.Duration) (*storeScan, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	sc := &storeScan{cells: map[string]os.DirEntry{}}
	found := func(name, kind string) {
		damage := kind != FindStaleSchema && kind != FindForeign
		sc.files = append(sc.files, FsckFinding{File: name, Kind: kind, Detail: findDetail[kind], Damage: damage})
	}
	now := time.Now()
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case ent.IsDir(): // never a store file
		case strings.HasSuffix(name, ".tmp"):
			if info, err := ent.Info(); tmpAge > 0 && (err != nil || now.Sub(info.ModTime()) < tmpAge) {
				continue
			}
			found(name, FindTornTmp)
		case storeFilePattern.MatchString(name):
			b, err := os.ReadFile(filepath.Join(s.dir, name))
			if err != nil {
				sc.unreadable = append(sc.unreadable, fmt.Errorf("resultstore: read %s: %w", name, err))
				continue
			}
			switch name[:2] {
			case "c-":
				sc.cellFiles++
			case "m-":
				sc.manifestFiles++
			}
			switch verdict, m := fileVerdict(name, b); {
			case verdict != "":
				found(name, verdict)
			case m != nil:
				sc.manifests = append(sc.manifests, *m)
			default:
				sc.cells[name[2:34]] = ent
			}
		default:
			found(name, FindForeign)
		}
	}
	referenced := map[string]bool{}
	for _, m := range sc.manifests {
		for _, fp := range m.Cells {
			referenced[fp] = true
		}
	}
	var orphans []string
	for fp := range sc.cells {
		if !referenced[fp] {
			orphans = append(orphans, fp)
		}
	}
	sort.Strings(orphans)
	sc.orphans = orphans
	return sc, nil
}

// Fsck verifies every file in the store directory and cross-checks
// manifests against the healthy cells the same walk found, so each
// file is read once. With opts.Repair it quarantines damaged entries
// (moving them into QuarantineDir) so the store is healthy afterwards
// and a resume run recomputes exactly what was lost. The check is
// read-only apart from those moves; findings are ordered
// deterministically so two checks of the same store produce identical
// reports. A store file that cannot be read fails the check.
func (s *Store) Fsck(opts FsckOptions) (FsckReport, error) {
	if s == nil {
		return FsckReport{}, fmt.Errorf("resultstore: Fsck on a nil store")
	}
	sc, err := s.scan(opts.TmpAge)
	if err != nil {
		return FsckReport{}, err
	}
	if len(sc.unreadable) > 0 {
		return FsckReport{}, sc.unreadable[0]
	}
	rep := FsckReport{Cells: sc.cellFiles, Manifests: sc.manifestFiles, Findings: sc.files}
	for i, f := range rep.Findings {
		if f.Damage {
			rep.Damage++
		}
		if f.Damage && opts.Repair {
			if err := s.quarantine(f.File); err != nil {
				return rep, err
			}
			rep.Findings[i].Repaired = true
			rep.Repaired++
		}
	}
	// A grid's cells are present exactly when the walk found them
	// healthy, which is what Coverage and a resume run see: a damaged
	// cell, quarantined or not, counts as missing.
	for _, m := range sc.manifests {
		done := 0
		for _, fp := range m.Cells {
			if _, ok := sc.cells[fp]; ok {
				done++
			}
		}
		if done < len(m.Cells) {
			rep.Findings = append(rep.Findings, FsckFinding{File: manifestName(m.Grid, m.Seed), Kind: FindIncompleteGrid,
				Detail: fmt.Sprintf("grid %q seed %d: %d/%d cells present; resume will recompute %d",
					m.Grid, m.Seed, done, len(m.Cells), len(m.Cells)-done)})
		}
	}
	for _, fp := range sc.orphans {
		rep.Findings = append(rep.Findings, FsckFinding{File: "c-" + fp + ".json", Kind: FindOrphanCell, Detail: findDetail[FindOrphanCell]})
	}
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		if rep.Findings[i].File != rep.Findings[j].File {
			return rep.Findings[i].File < rep.Findings[j].File
		}
		return rep.Findings[i].Kind < rep.Findings[j].Kind
	})
	return rep, nil
}

// Prune removes what the store can never read, as one walk finds it.
// It is a policy over Fsck's findings: of the files a check with
// TmpAge tmpGrace flags one by one, it removes all but the foreign
// ones — torn temp files, damage, and stale schemas (the pre-cell
// whole-grid blobs of schema 1 included). With maxAge > 0 it also removes the orphan cells whose
// file is older than maxAge; a cell a healthy manifest references
// stays whatever its age, since a warmed or pushed-to store may have
// received it with an arbitrary mtime and a resume or coverage check
// still expects to find it. Manifests never age out: they are tiny
// and carry the schedule that gives the cells meaning. A file that
// cannot be read right now is skipped, and files the store did not
// name (foreign files) are left alone. Returns the number of files
// removed.
func (s *Store) Prune(maxAge time.Duration) (int, error) {
	if s == nil {
		return 0, nil
	}
	sc, err := s.scan(tmpGrace)
	if err != nil {
		return 0, err
	}
	var doomed []string
	for _, f := range sc.files {
		if f.Kind != FindForeign {
			doomed = append(doomed, f.File)
		}
	}
	if maxAge > 0 {
		now := time.Now()
		for _, fp := range sc.orphans {
			if info, err := sc.cells[fp].Info(); err == nil && now.Sub(info.ModTime()) > maxAge {
				doomed = append(doomed, "c-"+fp+".json")
			}
		}
	}
	removed := 0
	var firstErr error
	for _, name := range doomed {
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("resultstore: %w", err)
			}
			continue
		}
		removed++
	}
	return removed, firstErr
}

// quarantine moves a store-relative file into QuarantineDir under the
// first free name of name, name.1, name.2, ..., so a cell damaged again
// after an earlier repair keeps the earlier evidence too.
func (s *Store) quarantine(name string) error {
	qdir := filepath.Join(s.dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("resultstore: quarantine: %w", err)
	}
	dst := filepath.Join(qdir, name)
	for n := 1; ; n++ {
		if _, err := os.Lstat(dst); err != nil {
			break // free, or the rename reports why not
		}
		dst = filepath.Join(qdir, name+"."+strconv.Itoa(n))
	}
	if err := os.Rename(filepath.Join(s.dir, name), dst); err != nil {
		return fmt.Errorf("resultstore: quarantine %s: %w", name, err)
	}
	return nil
}
