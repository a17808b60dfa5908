package bench

import (
	"testing"

	"scaf"
)

// TestBenchmarkPlansValidate closes the speculation loop end to end for
// every benchmark: build the session plan (System.Plan: the SCAF PDG with
// all options exposed, a global validation plan per hot loop), then
// re-run the program with the plan's checks enforced (never-taken edges
// watched, predicted values compared, read-only/short-lived heaps
// protected, residues masked). On the training input every assertion is
// high-confidence, so a single violation anywhere is a framework bug.
func TestBenchmarkPlansValidate(t *testing.T) {
	if testing.Short() {
		t.Skip("plan validation in -short mode")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			b, err := Load(name)
			if err != nil {
				t.Fatal(err)
			}
			plans, asserts := b.Sys.Plan(scaf.SchemeSCAF)
			covered, dropped := 0, 0
			for _, lp := range plans {
				covered += lp.Plan.Covered
				dropped += lp.Plan.Dropped
			}
			if len(asserts) == 0 {
				t.Logf("no speculative assertions needed (%d covered free)", covered)
				return
			}
			rep, err := b.Sys.Validate(asserts)
			if err != nil {
				t.Fatalf("validate: %v", err)
			}
			if rep.Failed() {
				for _, v := range rep.Violations[:min(3, len(rep.Violations))] {
					t.Errorf("MISSPECULATION: %s: %s", v.Assertion, v.Detail)
				}
				t.Fatalf("%d violations over %d checks", len(rep.Violations), rep.Checks)
			}
			t.Logf("%d assertions, %d runtime checks, %d deps covered, %d dropped — clean",
				len(asserts), rep.Checks, covered, dropped)
		})
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
