// Sidecar files: small named artifacts that live next to a store's
// content-addressed cells without being part of them — the sweep
// coordinator's learned cost model is the canonical example. Results
// and manifests must stay byte-identical across local and coordinated
// runs, so operational state like observed cell durations can never
// ride inside cell payloads; a sidecar gives it the same atomic
// temp+rename durability without touching content addresses.
// Sidecar names are deliberately constrained so they can never collide
// with the store's own "c-*/m-*" files (Prune and Fsck leave them
// alone, which is exactly right: a cost model is per-deployment state,
// not shared results).

package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// sidecarNamePattern is the allowed shape of a sidecar name: a simple
// relative file name, no separators, not hidden, not ".tmp" (reserved
// for in-flight atomic writes), and not matching the store's own
// content-addressed file pattern.
var sidecarNamePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// validSidecarName rejects names that could collide with store files
// or escape the store directory.
func validSidecarName(name string) error {
	if !sidecarNamePattern.MatchString(name) || filepath.Base(name) != name {
		return fmt.Errorf("resultstore: invalid sidecar name %q", name)
	}
	if storeFilePattern.MatchString(name) {
		return fmt.Errorf("resultstore: sidecar name %q collides with the store's content-addressed files", name)
	}
	if filepath.Ext(name) == ".tmp" {
		return fmt.Errorf("resultstore: sidecar name %q uses the reserved .tmp suffix", name)
	}
	return nil
}

// SidecarPath returns the file a sidecar is stored at.
func (s *Store) SidecarPath(name string) string {
	return filepath.Join(s.dir, name)
}

// SaveSidecar atomically persists a named sidecar next to the store's
// cells (temp file + rename, like every other store write).
func (s *Store) SaveSidecar(name string, b []byte) error {
	if s == nil {
		return fmt.Errorf("resultstore: SaveSidecar on a nil store")
	}
	if err := validSidecarName(name); err != nil {
		return err
	}
	return s.writeAtomic(s.SidecarPath(name), b)
}

// LoadSidecar returns a sidecar's bytes, or false when absent (or the
// name is invalid — an invalid name can never have been saved).
func (s *Store) LoadSidecar(name string) ([]byte, bool) {
	if s == nil || validSidecarName(name) != nil {
		return nil, false
	}
	b, err := os.ReadFile(s.SidecarPath(name))
	if err != nil {
		return nil, false
	}
	return b, true
}
