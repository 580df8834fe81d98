// Cell ingest and coverage: the fleet half of the result store. Cells
// are content-addressed, so a cell arriving as bytes from elsewhere (a
// coordinator worker's push, a -warm-from fetch) lands by a byte
// comparison — identical names either carry identical bytes (the same
// cell computed twice) or expose a real problem (a fingerprint
// collision or nondeterministic cell, which IngestCell refuses to
// paper over). Coverage diffs a grid manifest against the cells
// actually on disk, answering "how much of this sweep is done here".

package resultstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"slices"

	"fp8quant/internal/faultline"
)

// ErrCellConflict marks the unresolvable ingest case: the same
// fingerprint holding two different valid payloads (a hash collision
// or a nondeterministic cell). Callers branch on it with errors.Is —
// the coordinator answers it with 409 Conflict (permanent) while every
// other ingest failure is a retryable 500.
var ErrCellConflict = errors.New("resultstore: cell conflict")

// IsCellConflict reports whether err is a cell-conflict error.
func IsCellConflict(err error) bool { return errors.Is(err, ErrCellConflict) }

// ErrBadPayload marks an ingest payload that is not a valid
// current-schema envelope for its claimed fingerprint. Like a
// conflict, it is permanent — re-sending identical bytes cannot
// succeed — unlike the transient I/O failures IngestCell can also
// return.
var ErrBadPayload = errors.New("resultstore: invalid cell payload")

// IsBadPayload reports whether err is a bad-payload error.
func IsBadPayload(err error) bool { return errors.Is(err, ErrBadPayload) }

// IngestStatus reports what IngestCell did with a payload.
type IngestStatus int

const (
	// IngestStored means the payload was written (the cell was absent,
	// or replaced a corrupt entry).
	IngestStored IngestStatus = iota
	// IngestIdentical means the destination already held byte-identical
	// payload; nothing was written.
	IngestIdentical
)

// IngestCell lands one cell payload arriving as bytes — the
// coordinator's push path and -warm-from's fetch path. The payload
// must be a valid current-schema cell envelope whose key hashes to fp
// (a remote worker encodes it with EncodeCell); anything else is
// rejected before touching disk. Then: absent → written,
// byte-identical → skipped, corrupt destination → replaced, and two
// differing valid payloads → a hard error naming the fingerprint
// (silently picking a side would make reports depend on arrival
// order).
func (s *Store) IngestCell(fp string, payload []byte) (IngestStatus, error) {
	if s == nil {
		return 0, fmt.Errorf("resultstore: IngestCell on a nil store")
	}
	if err := faultline.Hit("resultstore.ingest.begin"); err != nil {
		return 0, fmt.Errorf("resultstore: ingest cell %s: %w", fp, err)
	}
	if !validCellBytes(payload, fp) {
		return 0, fmt.Errorf("%w: payload for cell %s is not a valid current-schema envelope for that fingerprint", ErrBadPayload, fp)
	}
	dstPath := s.CellPath(fp)
	dstBytes, err := os.ReadFile(dstPath)
	switch {
	case os.IsNotExist(err):
		// Absent in the destination: write.
		if werr := s.writeAtomic(dstPath, payload); werr != nil {
			return 0, werr
		}
		return IngestStored, nil
	case err != nil:
		// A destination cell that exists but cannot be read right now
		// (EACCES, EIO) might hold a different valid payload —
		// overwriting would silently pick a side, the very thing the
		// conflict check exists to prevent. Fail and let the caller
		// retry once the store is readable.
		return 0, fmt.Errorf("resultstore: ingest read destination c-%s.json: %w", fp, err)
	case bytes.Equal(dstBytes, payload):
		return IngestIdentical, nil
	case !validCellBytes(dstBytes, fp):
		// The destination holds a torn or corrupt entry; the valid
		// payload replaces it exactly like a recompute would.
		if werr := s.writeAtomic(dstPath, payload); werr != nil {
			return 0, werr
		}
		return IngestStored, nil
	default:
		return 0, fmt.Errorf(
			"%w on cell %s: incoming and stored payloads are both valid but differ (fingerprint collision or nondeterministic cell)", ErrCellConflict, fp)
	}
}

// CellBytesByFingerprint returns the raw stored envelope for a cell
// fingerprint when present and valid — the read half of the push
// protocol, used to answer idempotent re-pushes.
func (s *Store) CellBytesByFingerprint(fp string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	b, err := os.ReadFile(s.CellPath(fp))
	if err != nil || !validCellBytes(b, fp) {
		return nil, false
	}
	return b, true
}

// validCellBytes reports whether b is a healthy cell file for fp.
func validCellBytes(b []byte, fp string) bool {
	_, verdict := cellVerdict(b, fp, nil)
	return verdict == ""
}

// ErrVariantConflict marks an attempt to record a second kernel
// variant in a grid's manifest. The avx2 tier's fused rounding makes
// its cells bit-incompatible with the two-rounding tiers', so a store
// mixing them would poison warm-run byte-identity silently.
var ErrVariantConflict = errors.New("resultstore: kernel variant conflict")

// StampVariants unions variants into the kernel-variant provenance of
// the grid's stored manifest (Manifest.AddVariants) — the one-tier
// rule every path that lands cells from elsewhere applies before the
// cells land — and saves it if the list grew. An absent manifest is
// left alone: nothing records the schedule, so there is nothing to
// stamp.
func (s *Store) StampVariants(grid string, seed uint64, variants []string) error {
	m, ok := s.LoadManifest(grid, seed)
	if !ok {
		return nil
	}
	if grew, err := m.AddVariants(variants); !grew {
		return err
	}
	// A failed manifest write only degrades provenance reporting; the
	// cell payloads are still content-addressed and safe.
	_ = s.SaveManifest(m)
	return nil
}

// AddVariants unions variants into m.KernelVariants, deduplicated,
// and reports whether the list changed. A union of more than one
// distinct variant is an ErrVariantConflict and leaves m untouched.
// Empty variant names (older workers, legacy stores) union as nothing.
// A union that adds nothing to a recorded list of at most one variant
// (every push on the grid's own tier) copies nothing.
func (m *Manifest) AddVariants(variants []string) (bool, error) {
	isNew := func(v string) bool { return v != "" && !slices.Contains(m.KernelVariants, v) }
	if len(m.KernelVariants) <= 1 && !slices.Contains(m.KernelVariants, "") && !slices.ContainsFunc(variants, isNew) {
		return false, nil
	}
	var merged []string
	for _, v := range append(slices.Clone(m.KernelVariants), variants...) {
		if v != "" && !slices.Contains(merged, v) {
			merged = append(merged, v)
		}
	}
	if len(merged) > 1 {
		return false, fmt.Errorf("%w: %v against the store's recorded %v for grid %s: a sweep must stay on one tier (set FP8_KERNEL on every worker)",
			ErrVariantConflict, variants, m.KernelVariants, m.Grid)
	}
	if slices.Equal(merged, m.KernelVariants) {
		return false, nil
	}
	m.KernelVariants = merged
	return true, nil
}

// Coverage reports which of a manifest's cells are present in the
// store as valid current-schema entries.
type Coverage struct {
	// Total is the manifest's cell count.
	Total int
	// Done is how many of them are on disk.
	Done int
	// Missing holds the row-major indices of the absent cells.
	Missing []int
}

// Complete reports whether every cell is present.
func (c Coverage) Complete() bool { return c.Done == c.Total }

// Percent is the completion percentage (100 for an empty manifest).
func (c Coverage) Percent() float64 {
	if c.Total == 0 {
		return 100
	}
	return float64(c.Done) / float64(c.Total) * 100
}

// Coverage diffs the manifest's cell schedule against the store's
// on-disk cells. A cell counts as done exactly when a read would hit
// it: its file's verdict is healthy. A torn, stale or key-mismatched
// file is as missing as no file at all, since a resume run would
// recompute it. A nil store has nothing, so every cell is missing.
func (s *Store) Coverage(m Manifest) Coverage {
	cov := Coverage{Total: len(m.Cells)}
	for i, fp := range m.Cells {
		if _, ok := s.CellBytesByFingerprint(fp); ok {
			cov.Done++
		} else {
			cov.Missing = append(cov.Missing, i)
		}
	}
	return cov
}
