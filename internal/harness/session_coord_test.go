package harness_test

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"fp8quant/internal/coord"
	"fp8quant/internal/evalx"
	"fp8quant/internal/harness"
	"fp8quant/internal/models"
	"fp8quant/internal/resultstore"
)

// grantExp is a one-model, six-recipe grid whose cells record the
// network their session hands them.
type grantExp struct {
	mu   sync.Mutex
	nets map[*models.Network]int
}

func (*grantExp) ID() string    { return "session-grant" }
func (*grantExp) Title() string { return "one model's cells on a coord worker" }
func (*grantExp) Spec() harness.GridSpec {
	return harness.GridSpec{ID: "session-grant", Axes: []harness.Axis{
		{Name: "model", Values: []string{"cifar_resnet20"}},
		{Name: "recipe", Values: []string{"r1", "r2", "r3", "r4", "r5", "r6"}},
	}}
}
func (e *grantExp) RunCell(c harness.Cell) evalx.Result {
	net := harness.CellNetwork(c, c.Values[0])
	e.mu.Lock()
	e.nets[net]++
	e.mu.Unlock()
	return evalx.Result{Model: c.Values[0], Recipe: c.Values[1], BaseAcc: 1, QAcc: 1, Pass: true}
}
func (*grantExp) Render(*harness.Grid) *harness.Report { return &harness.Report{} }

// TestWorkerBuildsGrantOnce runs a coordinator's 6-cell single-model
// grant through one coord.Worker: the worker's session builds the model
// once, and every cell runs on that network.
func TestWorkerBuildsGrantOnce(t *testing.T) {
	harness.ClearMemo()
	t.Cleanup(harness.ClearMemo)
	s, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &grantExp{nets: map[*models.Network]int{}}
	c, err := coord.New(coord.Config{Experiments: []harness.Experiment{e}, Store: s})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	w := &coord.Worker{
		URL: srv.URL, Name: "grant", MaxRetries: 3,
		BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond,
		Resolve: func(id string) (harness.Experiment, bool) { return e, id == e.ID() },
	}
	stats, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Computed != 6 {
		t.Fatalf("the worker computed %d cells, want 6", stats.Computed)
	}
	if len(e.nets) != 1 {
		t.Errorf("the worker built %d networks for one model's 6 cells, want 1", len(e.nets))
	}
}
