// Grid sharding: one grid, several processes (or machines). A shard
// plan deterministically slices a spec's row-major cell indices into n
// disjoint, jointly complete subsets, so independent fp8bench
// invocations can each compute one subset into their own result store
// and the stores later merge by content address. Assignment is
// round-robin (cell j belongs to shard j mod n): row-major order
// groups a model's recipes together, so round-robin spreads the
// expensive models across shards instead of handing one shard the
// whole heavy end of the zoo. Under a filter, the executor applies the
// same round-robin to the positions of the filtered selection (see
// RunGrid), which balances even when the selected indices all share a
// residue class; for a full run the two formulations coincide.

package harness

import "fmt"

// Shard selects the Index-th (0-based) of Count disjoint slices of a
// grid's cells. The zero value means no sharding: the run computes
// every selected cell itself.
type Shard struct {
	Index, Count int
}

// Enabled reports whether the plan actually splits the grid.
func (sh Shard) Enabled() bool { return sh.Count > 1 }

// Validate checks the plan is well-formed (Count 0 and 1 both mean
// "unsharded" and are valid).
func (sh Shard) Validate() error {
	if sh.Count < 0 || sh.Index < 0 {
		return fmt.Errorf("harness: negative shard plan %d/%d", sh.Index+1, sh.Count)
	}
	if sh.Count > 0 && sh.Index >= sh.Count {
		return fmt.Errorf("harness: shard index %d out of range for %d shards", sh.Index+1, sh.Count)
	}
	return nil
}

// String renders the plan 1-based, matching the fp8bench -shard flag.
func (sh Shard) String() string {
	return fmt.Sprintf("%d/%d", sh.Index+1, sh.Count)
}

// Owns reports whether the plan assigns selection position k to this
// shard — the single definition of the round-robin rule the executor
// applies over filtered-selection positions. The zero (unsharded) plan
// owns every position.
func (sh Shard) Owns(k int) bool {
	return !sh.Enabled() || k%sh.Count == sh.Index
}
