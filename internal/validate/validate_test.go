package validate

import (
	"strings"
	"testing"

	"scaf/internal/cfg"
	"scaf/internal/core"
	"scaf/internal/interp"
	"scaf/internal/ir"
	"scaf/internal/lower"
	"scaf/internal/profile"
	"scaf/internal/spec"
)

func load(t *testing.T, src string) (*cfg.Program, *profile.Data) {
	t.Helper()
	mod, err := lower.Compile("test", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	prog := cfg.NewProgram(mod)
	data, err := profile.Collect(prog, interp.Options{})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	return prog, data
}

const ctrlProg = `
int x;
int out;
int mode;
void main() {
    for (int i = 0; i < 300; i++) {
        if (i > mode) {
            out = out + 1;
        } else {
            x = i;
        }
        out = out + x;
        x = i * 2;
    }
    print(out);
}
`

// ctrlAssertion builds the control assertion for main's never-taken edges
// as the control-speculation module would.
func ctrlAssertion(t *testing.T, prog *cfg.Program, data *profile.Data) core.Assertion {
	t.Helper()
	main := prog.Mod.FuncNamed("main")
	a := core.Assertion{Module: spec.NameControlSpec, Kind: "never-taken-edges"}
	for _, e := range data.Edge.BiasedEdges(main) {
		a.Points = append(a.Points, core.Point{Block: e.From, EdgeTo: e.To})
	}
	if len(a.Points) == 0 {
		t.Fatal("no biased edges")
	}
	return a
}

func TestControlAssertionValidatesOnTrainingInput(t *testing.T) {
	// mode defaults to 0... the branch i > mode is taken for i >= 1:
	// initialize mode high so the branch is never taken during profiling.
	src := strings.Replace(ctrlProg, "int mode;", "int mode;\nvoid init() { mode = 1000000; }", 1)
	src = strings.Replace(src, "void main() {", "void main() {\n    init();", 1)
	prog, data := load(t, src)
	a := ctrlAssertion(t, prog, data)
	rep, err := Check(prog, data, []core.Assertion{a}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("violations on the training input: %v", rep.Violations)
	}
}

func TestControlAssertionCatchesMisspeculation(t *testing.T) {
	// Profile with the branch never taken, then "change the input" by
	// rebuilding the program with a mode that takes it — the dead-edge
	// check must fire.
	srcTrain := strings.Replace(ctrlProg, "int mode;", "int mode;\nvoid init() { mode = 1000000; }", 1)
	srcTrain = strings.Replace(srcTrain, "void main() {", "void main() {\n    init();", 1)
	prog, data := load(t, srcTrain)
	a := ctrlAssertion(t, prog, data)

	// Simulate a different production input by mutating the init value in
	// the IR: find the store of the constant and lower the threshold.
	init := prog.Mod.FuncNamed("init")
	patched := false
	init.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore {
			in.Args[0] = ir.CI(150) // branch taken for i > 150
			patched = true
		}
	})
	if !patched {
		t.Fatal("init store not found")
	}
	rep, err := Check(prog, data, []core.Assertion{a}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("expected misspeculation on the changed input")
	}
	if !strings.Contains(rep.Violations[0].Detail, "dead edge") {
		t.Errorf("detail: %s", rep.Violations[0].Detail)
	}
}

func TestValueCheckViolation(t *testing.T) {
	prog, data := load(t, `
int cfg;
int out;
void main() {
    cfg = 5;
    for (int i = 0; i < 100; i++) {
        out = out + cfg;     // predictable during profiling
    }
    print(out);
}`)
	var cfgLoad *ir.Instr
	prog.Mod.FuncNamed("main").Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpLoad && in.Args[0] == ir.Value(prog.Mod.GlobalNamed("cfg")) {
			cfgLoad = in
		}
	})
	a := core.Assertion{
		Module: spec.NameValuePred, Kind: "value-check",
		Points: []core.Point{{Instr: cfgLoad}},
	}
	// Clean on the training input.
	rep, err := Check(prog, data, []core.Assertion{a}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() || rep.Checks != 100 {
		t.Fatalf("train run: failed=%v checks=%d", rep.Failed(), rep.Checks)
	}
	// Change the initial store: every check now fails.
	prog.Mod.FuncNamed("main").Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore && in.Args[1] == ir.Value(prog.Mod.GlobalNamed("cfg")) {
			in.Args[0] = ir.CI(6)
		}
	})
	rep, err = Check(prog, data, []core.Assertion{a}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("expected value misspeculation")
	}
}

func TestReadOnlyHeapViolation(t *testing.T) {
	prog, data := load(t, `
int* table;
int gate;
int out;
void fill() {
    int* t = table;
    for (int k = 0; k < 16; k++) { t[k] = k; }
}
void main() {
    table = malloc(int, 16);
    gate = 1000000;
    fill();
    for (int i = 0; i < 200; i++) {
        int* t = table;
        out = out + t[i % 16];
        if (i > gate) {
            t[0] = 0 - 1;        // never during profiling
        }
    }
    print(out);
}`)
	main := prog.Mod.FuncNamed("main")
	var site profile.Site
	main.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpMalloc {
			site = profile.Site{In: in}
		}
	})
	var header *ir.Block
	for _, l := range prog.Forests[main].All {
		if data.Lifetime.ReadOnly(l, site) {
			header = l.Header
		}
	}
	if header == nil {
		t.Fatal("table not read-only in any loop")
	}
	a := core.Assertion{
		Module: spec.NameReadOnly, Kind: "ro-heap",
		Points:    []core.Point{{Instr: site.In}, {Block: header}},
		Conflicts: []core.Point{{Instr: site.In}},
	}
	rep, err := Check(prog, data, []core.Assertion{a}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("train run violations: %v", rep.Violations)
	}
	// Lower the gate: the loop now writes the protected object.
	main.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore && in.Args[1] == ir.Value(prog.Mod.GlobalNamed("gate")) {
			in.Args[0] = ir.CI(100)
		}
	})
	rep, err = Check(prog, data, []core.Assertion{a}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("expected read-only heap misspeculation")
	}
}

func TestShortLivedViolationDetected(t *testing.T) {
	prog, data := load(t, `
int* scratch;
int* leak;
int gate;
int out;
void main() {
    gate = 1000000;
    leak = 0;
    for (int i = 0; i < 150; i++) {
        scratch = malloc(int, 4);
        int* s = scratch;
        s[0] = i;
        out = out + s[0];
        if (i > gate) {
            leak = s;            // never during profiling: object escapes
        } else {
            free(scratch);
        }
    }
    print(out);
}`)
	main := prog.Mod.FuncNamed("main")
	var site profile.Site
	main.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpMalloc {
			site = profile.Site{In: in}
		}
	})
	loop := prog.Forests[main].All[0]
	if !data.Lifetime.ShortLived(loop, site) {
		t.Fatal("site should profile as short-lived")
	}
	a := core.Assertion{
		Module: spec.NameShortLived, Kind: "sl-heap",
		Points:    []core.Point{{Instr: site.In}, {Block: loop.Header}},
		Conflicts: []core.Point{{Instr: site.In}},
	}
	rep, err := Check(prog, data, []core.Assertion{a}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("train run violations: %v", rep.Violations)
	}
	// Change the input: some objects now survive their iteration.
	main.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore && in.Args[1] == ir.Value(prog.Mod.GlobalNamed("gate")) {
			in.Args[0] = ir.CI(100)
		}
	})
	rep, err = Check(prog, data, []core.Assertion{a}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("expected short-lived misspeculation")
	}
	if !strings.Contains(rep.Violations[0].Detail, "survived iteration") {
		t.Errorf("detail: %s", rep.Violations[0].Detail)
	}
}

func TestRejectsUnvalidatableAssertions(t *testing.T) {
	prog, data := load(t, `void main() { print(1); }`)
	_, err := Check(prog, data, []core.Assertion{{Module: spec.NamePointsTo}}, interp.Options{})
	if err == nil {
		t.Error("raw points-to assertions must be rejected")
	}
	_, err = Check(prog, data, []core.Assertion{{Module: "mystery"}}, interp.Options{})
	if err == nil {
		t.Error("unknown modules must be rejected")
	}
}

func TestResidueViolation(t *testing.T) {
	// Even indices only during profiling: with 8-byte ints, g[even] lands
	// 16-byte-aligned offsets from g, so the element pointer sees a single
	// residue class. Odd indices shift by 8 — outside the profiled mask.
	prog, data := load(t, `
int g[16];
int gate;
int out;
void main() {
    gate = 1000000;
    for (int i = 0; i < 200; i++) {
        int k = (i & 7) * 2;
        if (i > gate) {
            k = k + 1;           // never during profiling
        }
        int* p = &g[k];
        out = out + (*p);
        (*p) = i;
    }
    print(out);
}`)
	main := prog.Mod.FuncNamed("main")
	var elemPtr *ir.Instr
	main.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpIndex {
			elemPtr = in
		}
	})
	if elemPtr == nil {
		t.Fatal("element-pointer instruction not found")
	}
	if mask, ok := data.Residue.Mask(elemPtr); !ok || mask == 0xffff {
		t.Fatalf("residue profile unusable: mask=%#x ok=%v", mask, ok)
	}
	a := core.Assertion{
		Module: spec.NameResidue, Kind: "residue-mask",
		Points: []core.Point{{Instr: elemPtr}},
	}
	rep, err := Check(prog, data, []core.Assertion{a}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("train run violations: %v", rep.Violations)
	}
	if rep.Checks == 0 {
		t.Fatal("residue check never executed")
	}
	// Lower the gate: odd residues appear.
	main.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore && in.Args[1] == ir.Value(prog.Mod.GlobalNamed("gate")) {
			in.Args[0] = ir.CI(100)
		}
	})
	rep, err = Check(prog, data, []core.Assertion{a}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("expected residue misspeculation")
	}
	if !strings.Contains(rep.Violations[0].Detail, "outside profiled mask") {
		t.Errorf("detail: %s", rep.Violations[0].Detail)
	}
}

// TestInstallErrors: every malformed or unvalidatable assertion is an
// install-time error — validation never starts with a half-wired monitor.
func TestInstallErrors(t *testing.T) {
	prog, data := load(t, `
int g[8];
int out;
void main() {
    for (int i = 0; i < 40; i++) {
        g[i & 7] = i;
        out = out + g[(i + 1) & 7];
    }
    print(out);
}`)
	main := prog.Mod.FuncNamed("main")
	var varyingLoad, someStore, someCmp *ir.Instr
	main.Instrs(func(in *ir.Instr) {
		switch in.Op {
		case ir.OpLoad:
			if _, ok := data.Value.Predictable(in); !ok {
				varyingLoad = in
			}
		case ir.OpStore:
			someStore = in
		case ir.OpCmp:
			someCmp = in
		}
	})
	if varyingLoad == nil || someStore == nil || someCmp == nil {
		t.Fatalf("fixture instructions missing: load=%v store=%v cmp=%v",
			varyingLoad, someStore, someCmp)
	}
	header := main.Blocks[0]

	cases := []struct {
		name    string
		assert  core.Assertion
		wantErr string
	}{
		{"control point without edge",
			core.Assertion{Module: spec.NameControlSpec,
				Points: []core.Point{{Block: header}}},
			"malformed control point"},
		{"value check on a store",
			core.Assertion{Module: spec.NameValuePred,
				Points: []core.Point{{Instr: someStore}}},
			"needs a load point"},
		{"value check without prediction",
			core.Assertion{Module: spec.NameValuePred,
				Points: []core.Point{{Instr: varyingLoad}}},
			"no prediction"},
		{"read-only without loop",
			core.Assertion{Module: spec.NameReadOnly,
				Points: []core.Point{{G: prog.Mod.GlobalNamed("g")}}},
			"needs site and loop points"},
		{"short-lived without site",
			core.Assertion{Module: spec.NameShortLived,
				Points: []core.Point{{Block: header}}},
			"needs site and loop points"},
		{"residue without profile",
			core.Assertion{Module: spec.NameResidue,
				Points: []core.Point{{Instr: someCmp}}},
			"no residue profile"},
		{"raw points-to",
			core.Assertion{Module: spec.NamePointsTo},
			"prohibitive"},
		{"unknown module",
			core.Assertion{Module: "mystery"},
			"unknown assertion module"},
	}
	for _, tc := range cases {
		_, err := Check(prog, data, []core.Assertion{tc.assert}, interp.Options{})
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestViolationOrderingAndCap: violations are reported in execution order
// — the order recovery code would observe them — and the report caps at
// 100 so a hot misspeculating loop cannot flood it. Where one event
// breaks several checks at once, the order is still fixed: objects that
// outlive their iteration in allocation order, writes to a protected
// object in the order its read-only checks were installed. Every Check
// of the same plan gives the same report, so fleet instances validating
// one create agree byte for byte.
func TestViolationOrderingAndCap(t *testing.T) {
	type tc struct {
		prog    *cfg.Program
		data    *profile.Data
		asserts []core.Assertion
		// kinds is the Kind sequence the capped report must repeat.
		kinds  []string
		detail string
	}
	mallocs := func(prog *cfg.Program) []*ir.Instr {
		var out []*ir.Instr
		prog.Mod.FuncNamed("main").Instrs(func(in *ir.Instr) {
			if in.Op == ir.OpMalloc {
				out = append(out, in)
			}
		})
		return out
	}
	cases := map[string]func(t *testing.T) tc{
		"value": func(t *testing.T) tc {
			prog, data := load(t, `
int cfg1;
int cfg2;
int out;
void main() {
    cfg1 = 5;
    cfg2 = 7;
    for (int i = 0; i < 120; i++) {
        out = out + cfg1;
        out = out + cfg2;
    }
    print(out);
}`)
			main := prog.Mod.FuncNamed("main")
			loadOf := func(name string) *ir.Instr {
				var found *ir.Instr
				main.Instrs(func(in *ir.Instr) {
					if in.Op == ir.OpLoad && in.Args[0] == ir.Value(prog.Mod.GlobalNamed(name)) {
						found = in
					}
				})
				if found == nil {
					t.Fatalf("no load of %s", name)
				}
				return found
			}
			asserts := []core.Assertion{
				{Module: spec.NameValuePred, Kind: "v1", Points: []core.Point{{Instr: loadOf("cfg1")}}},
				{Module: spec.NameValuePred, Kind: "v2", Points: []core.Point{{Instr: loadOf("cfg2")}}},
			}
			// Break both predictions.
			for _, name := range []string{"cfg1", "cfg2"} {
				g := prog.Mod.GlobalNamed(name)
				main.Instrs(func(in *ir.Instr) {
					if in.Op == ir.OpStore && in.Args[1] == ir.Value(g) {
						in.Args[0] = ir.CI(1000)
					}
				})
			}
			// 120 iterations x 2 failing checks = 240 misspeculations.
			return tc{prog, data, asserts, []string{"v1", "v2"}, "returned 1000, predicted 5"}
		},
		"short-lived": func(t *testing.T) tc {
			// Two objects leak per iteration: 150 x 2 = 300 misspeculations.
			prog, data := load(t, `
int* sa;
int* sb;
int out;
void main() {
    for (int i = 0; i < 150; i++) {
        sa = malloc(int, 4);
        sb = malloc(int, 4);
        int* a = sa;
        int* b = sb;
        a[0] = i;
        b[0] = i;
        out = out + a[0] + b[0];
    }
    print(out);
}`)
			ms := mallocs(prog)
			header := prog.Forests[prog.Mod.FuncNamed("main")].All[0].Header
			sl := func(kind string, site *ir.Instr) core.Assertion {
				return core.Assertion{Module: spec.NameShortLived, Kind: kind,
					Points: []core.Point{{Instr: site}, {Block: header}}}
			}
			// Installed in the reverse of allocation order: the report
			// must follow allocation order.
			asserts := []core.Assertion{sl("sl-b", ms[1]), sl("sl-a", ms[0])}
			return tc{prog, data, asserts, []string{"sl-a", "sl-b"}, "survived iteration 0"}
		},
		"read-only": func(t *testing.T) tc {
			// Every inner iteration writes the object both loops protect:
			// 10 x 16 writes x 2 checks = 320 misspeculations.
			prog, data := load(t, `
int* table;
int out;
void main() {
    table = malloc(int, 16);
    for (int j = 0; j < 10; j++) {
        for (int i = 0; i < 16; i++) {
            int* t = table;
            t[i] = i + j;
            out = out + t[i];
        }
    }
    print(out);
}`)
			site := mallocs(prog)[0]
			var outer, inner *ir.Block
			for _, l := range prog.Forests[prog.Mod.FuncNamed("main")].All {
				if l.Depth == 1 {
					outer = l.Header
				} else {
					inner = l.Header
				}
			}
			if outer == nil || inner == nil {
				t.Fatal("want a two-deep loop nest")
			}
			ro := func(kind string, header *ir.Block) core.Assertion {
				return core.Assertion{Module: spec.NameReadOnly, Kind: kind,
					Points: []core.Point{{Instr: site}, {Block: header}}}
			}
			asserts := []core.Assertion{ro("ro-inner", inner), ro("ro-outer", outer)}
			return tc{prog, data, asserts, []string{"ro-inner", "ro-outer"}, "write to read-only object"}
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			c := build(t)
			var first *Report
			for run := 0; run < 20; run++ {
				rep, err := Check(c.prog, c.data, c.asserts, interp.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Violations) != 100 {
					t.Fatalf("got %d violations, want the cap of 100", len(rep.Violations))
				}
				if first == nil {
					first = rep
					continue
				}
				for i := range rep.Violations {
					g, w := rep.Violations[i], first.Violations[i]
					if g.Assertion.Kind != w.Assertion.Kind || g.Detail != w.Detail {
						t.Fatalf("run %d: violation %d is %s %q, first run had %s %q",
							run, i, g.Assertion.Kind, g.Detail, w.Assertion.Kind, w.Detail)
					}
				}
				if rep.Checks != first.Checks {
					t.Fatalf("run %d: %d checks, first run had %d", run, rep.Checks, first.Checks)
				}
			}
			for i, v := range first.Violations {
				if want := c.kinds[i%len(c.kinds)]; v.Assertion.Kind != want {
					t.Fatalf("violation %d is %q, want %q (ordering broken)", i, v.Assertion.Kind, want)
				}
			}
			if !strings.Contains(first.Violations[0].Detail, c.detail) {
				t.Errorf("detail: %s", first.Violations[0].Detail)
			}
		})
	}
}

// TestPartialReportOnInterpreterFailure: a mid-run interpreter failure
// (here: instruction-budget exhaustion) must not erase what the monitors
// already saw. Check returns the partial report alongside the error, so
// recovery consumers can quarantine the violations observed before the
// run died.
func TestPartialReportOnInterpreterFailure(t *testing.T) {
	prog, data := load(t, `
int cfg;
int out;
void main() {
    cfg = 5;
    for (int i = 0; i < 100; i++) {
        out = out + cfg;
    }
    print(out);
}`)
	var cfgLoad *ir.Instr
	prog.Mod.FuncNamed("main").Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpLoad && in.Args[0] == ir.Value(prog.Mod.GlobalNamed("cfg")) {
			cfgLoad = in
		}
	})
	a := core.Assertion{
		Module: spec.NameValuePred, Kind: "value-check",
		Points: []core.Point{{Instr: cfgLoad}},
	}
	// Break the prediction, then rerun under a budget that traps mid-loop:
	// the violations seen before the trap must survive.
	prog.Mod.FuncNamed("main").Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore && in.Args[1] == ir.Value(prog.Mod.GlobalNamed("cfg")) {
			in.Args[0] = ir.CI(6)
		}
	})
	rep, err := Check(prog, data, []core.Assertion{a}, interp.Options{MaxSteps: 400})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("want an instruction-budget error, got %v", err)
	}
	if rep == nil {
		t.Fatal("partial report discarded on interpreter failure")
	}
	if rep.Checks == 0 || !rep.Failed() {
		t.Fatalf("partial report lost the pre-failure observations: checks=%d violations=%d",
			rep.Checks, len(rep.Violations))
	}
	if !strings.Contains(rep.Violations[0].Detail, "returned 6, predicted 5") {
		t.Errorf("detail: %s", rep.Violations[0].Detail)
	}
}

// slAssert builds a short-lived assertion for site under the loop headed
// by header.
func slAssert(kind string, site *ir.Instr, header *ir.Block) core.Assertion {
	return core.Assertion{Module: spec.NameShortLived, Kind: kind,
		Points:    []core.Point{{Instr: site}, {Block: header}},
		Conflicts: []core.Point{{Instr: site}}}
}

// TestShortLivedNestedLoops: an object allocated in an inner loop and
// kept until the end of the outer iteration survives every inner
// iteration that allocates it, whichever other loops guard its site too:
// the lifetime profiler counts it under every active loop, and so must
// validation, whatever the install order.
func TestShortLivedNestedLoops(t *testing.T) {
	prog, data := load(t, `
int* keep;
int out;
void main() {
    for (int j = 0; j < 20; j++) {
        for (int i = 0; i < 3; i++) {
            if (i == 2) {
                keep = malloc(int, 1);
            }
        }
        int* k = keep;
        k[0] = j;
        out = out + k[0];
        free(keep);
    }
    print(out);
}`)
	main := prog.Mod.FuncNamed("main")
	var site *ir.Instr
	main.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpMalloc {
			site = in
		}
	})
	var outer, inner *cfg.Loop
	for _, l := range prog.Forests[main].All {
		if l.Depth == 1 {
			outer = l
		} else {
			inner = l
		}
	}
	s := profile.Site{In: site}
	if data.Lifetime.ShortLived(inner, s) || !data.Lifetime.ShortLived(outer, s) {
		t.Fatal("want the site short-lived under the outer loop only")
	}
	for name, asserts := range map[string][]core.Assertion{
		"inner":       {slAssert("sl-inner", site, inner.Header)},
		"inner-outer": {slAssert("sl-inner", site, inner.Header), slAssert("sl-outer", site, outer.Header)},
		"outer-inner": {slAssert("sl-outer", site, outer.Header), slAssert("sl-inner", site, inner.Header)},
	} {
		rep, err := Check(prog, data, asserts, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) != 20 {
			t.Errorf("%s: %d violations, want one per outer iteration (20)", name, len(rep.Violations))
			continue
		}
		for _, v := range rep.Violations {
			if v.Assertion.Kind != "sl-inner" || !strings.Contains(v.Detail, "survived iteration 2") {
				t.Errorf("%s: violation %s %q, want sl-inner surviving iteration 2", name, v.Assertion.Kind, v.Detail)
				break
			}
		}
	}
}

// TestShortLivedRecursiveActivations: every activation of a guarded loop
// is checked, not only the outermost. Each inner activation of a
// recursive walk hands the object of its last iteration to its caller,
// which frees it within its own iteration: three violations, one per
// inner activation.
func TestShortLivedRecursiveActivations(t *testing.T) {
	prog, data := load(t, `
int* last;
int out;
void walk(int d, int top) {
    for (int i = 0; i < 4; i++) {
        int* p = malloc(int, 1);
        p[0] = i + d;
        out = out + p[0];
        if (d > 0 && i == 1) {
            walk(d - 1, 0);
            free(last);
        }
        if (top == 0 && i == 3) {
            last = p;
        } else {
            free(p);
        }
    }
}
void main() {
    walk(3, 1);
    print(out);
}`)
	walk := prog.Mod.FuncNamed("walk")
	var site *ir.Instr
	walk.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpMalloc {
			site = in
		}
	})
	loop := prog.Forests[walk].All[0]
	if data.Lifetime.ShortLived(loop, profile.Site{In: site}) {
		t.Fatal("the profiler should see objects survive an iteration")
	}
	rep, err := Check(prog, data, []core.Assertion{slAssert("sl-walk", site, loop.Header)}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 3 {
		t.Fatalf("%d violations, want one per inner activation (3): %v", len(rep.Violations), rep.Violations)
	}
	for _, v := range rep.Violations {
		if !strings.Contains(v.Detail, "survived iteration 3") {
			t.Errorf("detail: %s", v.Detail)
		}
	}
}
