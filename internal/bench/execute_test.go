package bench

import (
	"fmt"
	"strings"
	"testing"

	"scaf/internal/core"
)

// TestExecuteSuiteDeterministic pins the gate's premise: two speculative
// executions of the same benchmarks produce identical counters once the
// wall-clock fields are stripped, so CompareReports may diff them
// exactly.
func TestExecuteSuiteDeterministic(t *testing.T) {
	run := func() []ExecRow {
		s, err := LoadSuite("129.compress", "462.libquantum")
		if err != nil {
			t.Fatalf("LoadSuite: %v", err)
		}
		rows, err := ExecuteSuite(s, 4)
		if err != nil {
			t.Fatalf("ExecuteSuite: %v", err)
		}
		return rows
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("row %d: name %q vs %q", i, a[i].Name, b[i].Name)
		}
		if ea, eb := a[i].Exec.stripWall(), b[i].Exec.stripWall(); ea != eb {
			t.Errorf("%s: exec counters differ across runs:\n  %+v\n  %+v", a[i].Name, ea, eb)
		}
	}
}

// TestCompareExecCounters pins the gate rules for the exec section:
// identical counters pass, any deterministic-counter drift fails, a
// baseline without exec counters skips the comparison, and a baseline
// WITH exec counters refuses a fresh report that dropped them.
func TestCompareExecCounters(t *testing.T) {
	mk := func(exec *ReportExec) *Report {
		return &Report{Benchmarks: []ReportBench{{
			Name:     "b",
			NoDepPct: map[string]float64{},
			Counters: map[string]core.Counters{},
			Exec:     exec,
		}}}
	}
	e := ReportExec{Workers: 4, DoallLoops: 2, SpecIters: 100, SerialIters: 10,
		AbortedChunks: 1, Misspecs: 1, MemDigest: 0xabc, AbortCostPct: 100 * 10.0 / 110}

	if fails := CompareReports(mk(&e), mk(&e), DefaultWorkTolerance); len(fails) != 0 {
		t.Fatalf("identical exec counters failed the gate: %v", fails)
	}
	// Wall-clock drift alone must not fail.
	fresh := e
	fresh.SerialNS, fresh.ExecNS, fresh.SpeedupX = 999, 1, 999
	if fails := CompareReports(mk(&e), mk(&fresh), DefaultWorkTolerance); len(fails) != 0 {
		t.Fatalf("wall-clock drift failed the gate: %v", fails)
	}
	// A deterministic counter drifting must fail.
	fresh = e
	fresh.CommittedChunks++
	fails := CompareReports(mk(&e), mk(&fresh), DefaultWorkTolerance)
	if len(fails) != 1 || !strings.Contains(fails[0], "exec counters diverged") {
		t.Fatalf("committed-chunk drift not caught: %v", fails)
	}
	// Baseline without exec counters: comparison is skipped.
	if fails := CompareReports(mk(nil), mk(&e), DefaultWorkTolerance); len(fails) != 0 {
		t.Fatalf("old baseline without exec section failed the gate: %v", fails)
	}
	// Baseline with exec counters, fresh without: the gate has teeth.
	fails = CompareReports(mk(&e), mk(nil), DefaultWorkTolerance)
	if len(fails) != 1 || !strings.Contains(fails[0], "run the gate with -execute") {
		t.Fatalf("dropped exec section not caught: %v", fails)
	}
}

// TestExecSpeedupOnlyWhenSpeculated: a program that speculates no
// iteration runs serially twice, so its wall-clock ratio is noise: the
// report leaves speedup_x at 0 and the table prints "-" there, while a
// speculating program gets its ratio.
func TestExecSpeedupOnlyWhenSpeculated(t *testing.T) {
	s, err := LoadSuite("129.compress", "183.equake")
	if err != nil {
		t.Fatalf("LoadSuite: %v", err)
	}
	rows, err := ExecuteSuite(s, 4)
	if err != nil {
		t.Fatalf("ExecuteSuite: %v", err)
	}
	if rows[0].Exec.SpecIters != 0 || rows[1].Exec.SpecIters == 0 {
		t.Fatalf("want 129.compress to speculate nothing and 183.equake to speculate: %+v %+v", rows[0].Exec, rows[1].Exec)
	}
	table := strings.Split(RenderExec(rows), "\n")
	for i, row := range rows {
		e := row.Exec
		fields := strings.Fields(table[i+2])
		speedup := fields[len(fields)-2]
		if e.SpecIters+e.SerialIters == 0 {
			if e.SpeedupX != 0 || speedup != "-" {
				t.Errorf("%s speculated nothing: speedup_x %v, column %q", row.Name, e.SpeedupX, speedup)
			}
		} else if e.SpeedupX <= 0 || speedup != fmt.Sprintf("%.2fx", e.SpeedupX) {
			t.Errorf("%s speculated: speedup_x %v, column %q", row.Name, e.SpeedupX, speedup)
		}
	}
}
