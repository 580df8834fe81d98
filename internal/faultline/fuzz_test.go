package faultline

import (
	"reflect"
	"testing"
)

// FuzzParsePlan checks that every plan ParsePlan accepts survives a
// trip through Plan.String: the rendered spec parses back to the same
// plan, so a logged plan replays exactly.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"a=err%1",
		// The chaos-smoke plans.
		"seed=7;resultstore.save.temp=corrupt:0.5@5x2;resultstore.save.rename=err@11x1;coord.server.push=http500@3x4;coord.server.lease=drop@4x3",
		"seed=13;coord.client.push=crash",
		"seed=11;coord.client.push=err%0.3x3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		q, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q) = %#v renders as %q, which does not parse: %v", spec, p, p.String(), err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("ParsePlan(%q) = %#v, but its rendering %q parses to %#v", spec, p, p.String(), q)
		}
	})
}
