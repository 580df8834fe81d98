// Store warming over the wire: a restarted fleet member (or a fresh
// machine joining one) fills its local result store from the
// coordinator's cached cell bytes instead of needing a shared
// filesystem or an rsync step. Cells travel as the exact stored
// envelopes (GET /v1/cell/<fp>), and land through IngestCell, so a
// warmed store is byte-identical to one that computed the cells
// itself — warm runs over it report pure hits.

package coord

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"

	"fp8quant/internal/faultline"
	"fp8quant/internal/harness"
	"fp8quant/internal/resultstore"
)

// WarmStats summarizes one Warm call.
type WarmStats struct {
	// Fetched counts cells pulled from the coordinator into the store.
	Fetched int
	// Present counts cells the local store already held valid bytes for.
	Present int
	// Absent counts cells the coordinator does not have either (404) —
	// normal while a sweep is still running.
	Absent int
}

func (s WarmStats) String() string {
	return fmt.Sprintf("%d cells fetched, %d already present, %d absent upstream", s.Fetched, s.Present, s.Absent)
}

// Warm fetches every cell of the experiments' grids that the local
// store is missing from the coordinator at url, ingesting them under
// the store's usual conflict rules. Manifests are recorded locally from
// the specs (Store.RecordSchedule, as local runs do), so coverage
// tooling works on the warmed store immediately. Before a fetched cell
// lands, the kernel variants the coordinator records for its grid are
// stamped into the local manifest under the store's one-tier rule, so
// cells from another tier are refused instead of mixed in. Fetches are
// single requests — an unreachable coordinator fails the warm; a
// missing cell does not.
func Warm(ctx context.Context, url string, store *resultstore.Store, exps []harness.Experiment, log io.Writer) (WarmStats, error) {
	var st WarmStats
	if store == nil {
		return st, fmt.Errorf("coord: Warm needs a store to warm")
	}
	client := &http.Client{}
	base := strings.TrimRight(url, "/")
	for _, e := range exps {
		spec := e.Spec()
		if spec.NumCells() == 0 {
			continue
		}
		// A failed manifest write only degrades coverage reporting.
		_, _ = store.RecordSchedule(harness.ManifestFor(spec))
		for i := 0; i < spec.NumCells(); i++ {
			fp := spec.CellKey(spec.CellAt(i)).Fingerprint()
			if _, ok := store.CellBytesByFingerprint(fp); ok {
				st.Present++
				continue
			}
			b, variants, found, err := fetchCell(ctx, client, base, fp)
			if err != nil {
				return st, fmt.Errorf("coord: warm %s cell %d: %w", e.ID(), i, err)
			}
			if !found {
				st.Absent++
				continue
			}
			if err := store.StampVariants(spec.ID, spec.Seed, variants); err != nil {
				return st, fmt.Errorf("coord: warm %s cell %d: %w", e.ID(), i, err)
			}
			if _, err := store.IngestCell(fp, b); err != nil {
				return st, fmt.Errorf("coord: warm %s cell %d: %w", e.ID(), i, err)
			}
			st.Fetched++
		}
		if log != nil {
			fmt.Fprintf(log, "warm %s: %s\n", e.ID(), st)
		}
	}
	return st, nil
}

// fetchCell GETs one cell's stored bytes and the kernel variants the
// coordinator records for its grid; found=false on 404.
func fetchCell(ctx context.Context, client *http.Client, base, fp string) (b []byte, variants []string, found bool, err error) {
	if err = faultline.Hit("coord.client.cell"); err != nil {
		return nil, nil, false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/cell/"+fp, nil)
	if err != nil {
		return nil, nil, false, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, false, err
	}
	defer resp.Body.Close()
	b, err = io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, nil, false, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		if h := resp.Header.Get(VariantsHeader); h != "" {
			variants = strings.Split(h, ",")
		}
		return b, variants, true, nil
	case http.StatusNotFound:
		return nil, nil, false, nil
	default:
		return nil, nil, false, fmt.Errorf("GET /v1/cell/%s: HTTP %d: %s", fp, resp.StatusCode, strings.TrimSpace(string(b)))
	}
}
