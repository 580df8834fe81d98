package main

import (
	"strings"
	"testing"
)

// TestServeRejectsNonDenseModels serves a dense model and checks that
// models whose samples carry token ids or categorical bags, which the
// server's dense request tensors cannot hold, are refused with an error
// instead of served.
func TestServeRejectsNonDenseModels(t *testing.T) {
	if err := run("cifar_resnet20", "e4m3", "1", 8, 4, 1, true); err != nil {
		t.Fatalf("dense model: %v", err)
	}
	for _, model := range []string{"bert_base_mrpc", "dlrm_criteo"} {
		err := run(model, "e4m3", "1", 8, 4, 1, true)
		if err == nil || !strings.Contains(err.Error(), "dense-input models only") {
			t.Errorf("%s: got error %v, want a dense-input rejection", model, err)
		}
	}
}
