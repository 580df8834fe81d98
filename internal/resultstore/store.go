// Package resultstore persists experiment results to disk as
// content-addressed JSON files, so repeated fp8bench invocations reuse
// completed work instead of recomputing it. The unit of storage is one
// grid *cell* — a single (axis values) evaluation — keyed by a
// fingerprint of (grid id, ordered axis name/value pairs, seed, schema
// version), so an interrupted sweep resumes from its completed cells.
// A per-grid manifest records the full cell schedule for tooling and
// the one kernel tier the grid's cells were computed on; RecordSchedule
// and StampVariants write it. Writes are atomic (temp file + rename).
// The store owns the rules its files obey: each cell or manifest file
// gets one verdict (cellVerdict, manifestVerdict) — healthy, or the
// Fsck finding kind of its flaw — and every reader judges through it,
// so a file is a Load hit exactly when Coverage counts it done,
// Fsck calls it clean and Prune keeps it. A flawed file is a miss, so
// a damaged cache can never poison a report — at worst it costs a
// recompute.
package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"

	"fp8quant/internal/evalx"
	"fp8quant/internal/faultline"
)

// SchemaVersion identifies the evaluation-code generation a stored cell
// was produced by. Bump it whenever evalx.Result's layout, the batch
// protocol, or anything else that changes cell numbers changes; stored
// entries from other versions are treated as misses (and removed by
// Prune). Version 1 was the pre-cell whole-grid blob format.
const SchemaVersion = 2

// AxisValue is one (axis name, value) coordinate of a cell.
type AxisValue struct {
	Axis  string `json:"axis"`
	Value string `json:"value"`
}

// CellKey identifies one stored cell. Cell coordinates are ordered —
// axis order is part of the identity.
type CellKey struct {
	// Grid is the grid id (e.g. "table2-sweep"). Experiments sharing a
	// grid (table2/fig4/fig5) use the same id and so share cells.
	Grid string `json:"grid"`
	// Cell are the cell's axis coordinates, in axis order.
	Cell []AxisValue `json:"cell"`
	// Seed is the experiment-level seed.
	Seed uint64 `json:"seed"`
	// Schema is the evaluation-code schema version (SchemaVersion).
	Schema int `json:"schema"`
}

// Fingerprint returns the content address of the key: a 128-bit hex
// digest of its canonical JSON encoding, hex-encoded into a fixed
// array rather than a heap buffer.
func (k CellKey) Fingerprint() string {
	b, err := json.Marshal(k)
	if err != nil {
		panic("resultstore: unmarshalable key: " + err.Error())
	}
	sum := sha256.Sum256(b)
	var fp [32]byte
	hex.Encode(fp[:], sum[:16])
	return string(fp[:])
}

// Addr is a cell key with its content address. A cell's address is
// derived once (CellKey.Addr) and handed down with the key, so the
// memo, the store read and the store write of one cell share one hash.
// It is a snapshot: a key changed after Addr needs a new Addr.
type Addr struct {
	Key CellKey
	// FP is Key.Fingerprint().
	FP string
}

// Addr pairs the key with its fingerprint.
func (k CellKey) Addr() Addr { return Addr{Key: k, FP: k.Fingerprint()} }

// Manifest records a grid's full cell schedule: the axes and the
// row-major cell fingerprints. It lets tooling reason about coverage
// (which cells of a sweep exist) without re-deriving the spec.
type Manifest struct {
	Grid   string         `json:"grid"`
	Seed   uint64         `json:"seed"`
	Schema int            `json:"schema"`
	Axes   []ManifestAxis `json:"axes"`
	// Cells are the row-major cell fingerprints of the full grid.
	Cells []string `json:"cells"`
	// KernelVariants records which GEMM kernel variants produced cells
	// in this store (empty for pre-variant stores and runs that served
	// everything from cache). It is provenance, not schedule — but
	// StampVariants refuses to record more than one distinct variant,
	// because the avx2 tier's fused rounding makes its cells
	// bit-incompatible with two-rounding tiers' and a mixed store would
	// poison warm-run byte-identity silently. Manifests written by
	// older versions may carry fields this struct no longer declares;
	// decoding ignores them.
	KernelVariants []string `json:"kernel_variants,omitempty"`
}

// SameSchedule reports whether two manifests declare the identical cell
// schedule (everything except the KernelVariants provenance).
func (m Manifest) SameSchedule(o Manifest) bool {
	a, b := m, o
	a.KernelVariants, b.KernelVariants = nil, nil
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	return string(ab) == string(bb)
}

// ManifestAxis is one declared grid dimension.
type ManifestAxis struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// Stats counts cell traffic since Open. Manifest reads/writes are
// bookkeeping, not results, and are deliberately not counted — the
// counters answer "how many cells were reused vs recomputed".
type Stats struct {
	Hits, Misses, Writes int64
}

// String formats the stats as the fp8bench cache-stats line body.
func (s Stats) String() string {
	return fmt.Sprintf("%d hits, %d misses, %d writes", s.Hits, s.Misses, s.Writes)
}

// Store is a directory of content-addressed cell and manifest files. A
// nil *Store is valid and behaves as an always-miss, never-write store.
type Store struct {
	dir string
	// cellPrefix is filepath.Join(dir, "c-"): a cell's path is it, the
	// fingerprint and ".json", built in one concatenation.
	cellPrefix           string
	hits, misses, writes atomic.Int64
}

// DefaultDir is the store directory the commands use when -cache-dir
// is not given: ~/.cache/fp8bench (per XDG on Linux), or a local
// directory when the user cache directory cannot be resolved. fp8bench
// and fp8coord share it, so a coordinator and local runs share results
// out of the box.
func DefaultDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ".fp8bench-cache"
	}
	return filepath.Join(base, "fp8bench")
}

// Open creates (if needed) and opens the store directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return &Store{dir: dir, cellPrefix: filepath.Join(dir, "c-")}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{Hits: s.hits.Load(), Misses: s.misses.Load(), Writes: s.writes.Load()}
}

// CellPath returns the file the cell with fingerprint fp is stored at.
func (s *Store) CellPath(fp string) string {
	return s.cellPrefix + fp + ".json"
}

// cellEnvelope is the on-disk cell format: the schema version and full
// key ride along with the result so reads can reject stale or
// colliding entries.
type cellEnvelope struct {
	Schema int          `json:"schema"`
	Key    CellKey      `json:"key"`
	Result evalx.Result `json:"result"`
}

// cellVerdict judges the bytes of the cell file named for fp: "" for a
// healthy cell (a current-schema envelope whose key hashes to fp),
// else the Find* kind of its flaw. It returns the decoded envelope.
// A reader that holds the key fp was derived from passes it as want,
// and the decoded key is compared with it field by field instead of
// being hashed: equal keys have equal encodings, and the encoding is
// all the hash sees.
func cellVerdict(b []byte, fp string, want *CellKey) (cellEnvelope, string) {
	var env cellEnvelope
	if want != nil && len(want.Cell) > 0 {
		// Room for the expected coordinates: one allocation, not one
		// per doubling. A key stored without a cell field keeps this
		// empty slice, which still compares unequal to want.
		env.Key.Cell = make([]AxisValue, 0, len(want.Cell))
	}
	switch {
	case json.Unmarshal(b, &env) != nil:
		return env, FindCorruptCell
	case env.Schema != SchemaVersion:
		return env, FindStaleSchema
	case want != nil && !sameKey(env.Key, *want), want == nil && env.Key.Fingerprint() != fp:
		return env, FindMismatchedCell
	}
	return env, ""
}

// sameKey compares two keys field by field. A nil Cell differs from an
// empty one, as their encodings (null, []) do. It assumes valid UTF-8,
// as grid names and axis values are: JSON stores an invalid byte as
// U+FFFD, so a key holding one would never match its own stored copy.
func sameKey(a, b CellKey) bool {
	return a.Grid == b.Grid && a.Seed == b.Seed && a.Schema == b.Schema &&
		(a.Cell == nil) == (b.Cell == nil) && slices.Equal(a.Cell, b.Cell)
}

// Load returns the stored result for the addressed cell, or (zero,
// false) on any miss: an absent file, or one whose verdict is not
// healthy.
func (s *Store) Load(a Addr) (evalx.Result, bool) {
	if s == nil {
		return evalx.Result{}, false
	}
	// An injected read fault behaves exactly like a real one: a miss.
	var b []byte
	err := faultline.Hit("resultstore.load.read")
	if err == nil {
		b, err = os.ReadFile(s.CellPath(a.FP))
	}
	// A flawed entry (a torn write from a crashed process, disk damage)
	// is deliberately not deleted: the recompute's Save rename replaces
	// it atomically, and a delete here could race a concurrent
	// process's just-renamed valid cell.
	if err == nil {
		if env, verdict := cellVerdict(b, a.FP, &a.Key); verdict == "" {
			s.hits.Add(1)
			return env.Result, true
		}
	}
	s.misses.Add(1)
	return evalx.Result{}, false
}

// EncodeCell returns the exact bytes SaveCell would write for the
// (key, result) pair — the canonical on-disk cell envelope. Remote
// workers encode their payloads through it so a pushed cell is
// byte-identical to the file a local run would have produced, which is
// what lets IngestCell's byte-equality conflict rules apply to pushed
// payloads.
func EncodeCell(k CellKey, r evalx.Result) ([]byte, error) {
	b, err := json.Marshal(cellEnvelope{Schema: k.Schema, Key: k, Result: r})
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return b, nil
}

// SaveCell atomically persists the result under the key.
//
//fp8vet:ignore unused the bench module's traced cell path (bench/cellpath.go) persists through it
func (s *Store) SaveCell(k CellKey, r evalx.Result) error {
	return s.Save(k.Addr(), r)
}

// Save atomically persists the result under the addressed cell.
func (s *Store) Save(a Addr, r evalx.Result) error {
	if s == nil {
		return nil
	}
	b, err := EncodeCell(a.Key, r)
	if err != nil {
		return err
	}
	if err := s.writeAtomic(s.CellPath(a.FP), b); err != nil {
		return err
	}
	s.writes.Add(1)
	return nil
}

// ManifestPath returns the file a grid's manifest is stored at.
func (s *Store) ManifestPath(grid string, seed uint64) string {
	return filepath.Join(s.dir, manifestName(grid, seed))
}

// manifestName is the file name of a grid's manifest: the hash of its
// (grid, seed, schema).
func manifestName(grid string, seed uint64) string {
	key := struct {
		Grid   string `json:"grid"`
		Seed   uint64 `json:"seed"`
		Schema int    `json:"schema"`
	}{grid, seed, SchemaVersion}
	b, _ := json.Marshal(key)
	sum := sha256.Sum256(b)
	return "m-" + hex.EncodeToString(sum[:16]) + ".json"
}

// manifestEnvelope wraps a manifest with its schema version.
type manifestEnvelope struct {
	Schema   int      `json:"schema"`
	Manifest Manifest `json:"manifest"`
}

// manifestVerdict judges the bytes of the manifest file called name:
// "" for a healthy manifest (a current-schema envelope stored under
// its grid's manifest name), else the Find* kind of its flaw. It
// returns the decoded manifest.
func manifestVerdict(name string, b []byte) (Manifest, string) {
	var env manifestEnvelope
	switch {
	case json.Unmarshal(b, &env) != nil:
		return env.Manifest, FindCorruptManifest
	case env.Schema != SchemaVersion:
		return env.Manifest, FindStaleSchema
	case manifestName(env.Manifest.Grid, env.Manifest.Seed) != name:
		return env.Manifest, FindMisplacedManifest
	}
	return env.Manifest, ""
}

// LoadManifest returns the stored manifest for a grid, or false on any
// miss. Manifest traffic is not counted in Stats.
func (s *Store) LoadManifest(grid string, seed uint64) (Manifest, bool) {
	if s == nil {
		return Manifest{}, false
	}
	name := manifestName(grid, seed)
	b, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return Manifest{}, false
	}
	if m, verdict := manifestVerdict(name, b); verdict == "" && m.Grid == grid && m.Seed == seed {
		return m, true
	}
	return Manifest{}, false
}

// RecordSchedule records m as its grid's full schedule and returns the
// manifest the store holds for the grid afterwards. A stored manifest
// with the same schedule is kept as it is, with the kernel-variant
// provenance it carries; any other is replaced by m, because the
// grid's axes can change without a schema bump (a model added to the
// zoo) and a stale schedule would misreport coverage forever. It and
// StampVariants are the store's manifest writers.
func (s *Store) RecordSchedule(m Manifest) (Manifest, error) {
	m.Schema = SchemaVersion
	if old, ok := s.LoadManifest(m.Grid, m.Seed); ok && old.SameSchedule(m) {
		return old, nil
	}
	return m, s.SaveManifest(m)
}

// SaveManifest atomically persists a grid manifest.
func (s *Store) SaveManifest(m Manifest) error {
	if s == nil {
		return nil
	}
	m.Schema = SchemaVersion
	b, err := json.Marshal(manifestEnvelope{Schema: SchemaVersion, Manifest: m})
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	return s.writeAtomic(s.ManifestPath(m.Grid, m.Seed), b)
}

// storeFilePattern matches the files this (or the schema-1) store
// writes: "c-<hex32>.json" cells, "m-<hex32>.json" manifests, and the
// legacy bare "<hex32>.json" whole-grid blobs. Prune only ever touches
// these (plus "*.tmp"), so foreign files sharing the directory are
// safe.
var storeFilePattern = regexp.MustCompile(`^(c-|m-)?[0-9a-f]{32}\.json$`)

// writeAtomic writes b to path via a temp file + rename, so concurrent
// readers only ever see complete entries. Three faultline points cover
// the write's crash windows — "resultstore.<class>.create" (before the
// temp file exists), ".temp" (a WriteBytes point, so torn/corrupt rules
// can truncate the payload), and ".rename" (after a complete temp
// write, before it becomes visible) — where <class> is save (cells)
// or manifest by the destination file's name. Injected temp/rename
// faults deliberately leave the temp file behind, because that is what
// the crash they simulate would do; real write errors still clean up.
func (s *Store) writeAtomic(path string, b []byte) error {
	points := writePointsOf(path)
	if err := faultline.Hit(points.create); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, ".cell-*.tmp")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	wb, injerr := faultline.WriteBytes(points.temp, b)
	if _, err := tmp.Write(wb); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}
	if injerr != nil {
		tmp.Close()
		return fmt.Errorf("resultstore: %w", injerr)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := faultline.Hit(points.rename); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}

// writePoints are the failpoint names of one class of atomic write.
type writePoints struct{ create, temp, rename string }

// writePointsOf names the failpoints of a write by the kind of store
// file its path holds: "manifest" for a manifest, else "save" (cells).
func writePointsOf(path string) writePoints {
	if strings.HasPrefix(filepath.Base(path), "m-") {
		return writePoints{"resultstore.manifest.create", "resultstore.manifest.temp", "resultstore.manifest.rename"}
	}
	return writePoints{"resultstore.save.create", "resultstore.save.temp", "resultstore.save.rename"}
}
