package validate_test

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"scaf"
	"scaf/internal/bench"
	"scaf/internal/cfg"
	"scaf/internal/core"
	"scaf/internal/interp"
	"scaf/internal/ir"
	"scaf/internal/mcgen"
	"scaf/internal/pdg"
	"scaf/internal/profile"
	"scaf/internal/spec"
	"scaf/internal/validate"
)

// TestValidationDigest pins every validation report, byte for byte: the
// check count and each violation's assertion and detail, hashed per
// program. The suite programs and mcgen seeds 1–60 validate the plan a
// session create builds for them on their training input, where every
// check passes; the violating cases profile one input, change it, and
// validate hand-built assertions of every kind against the changed
// program. A change to how validation runs must leave every literal as
// it is; on failure the test names the program whose report diverged.
func TestValidationDigest(t *testing.T) {
	var programs []string
	for name := range bench.Sources {
		programs = append(programs, name)
	}
	sort.Strings(programs)
	for _, name := range programs {
		sys, err := scaf.Load(name, bench.Sources[name], scaf.Options{})
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		checkDigest(t, name, sys.Prog, sys.Profiles, sessionPlan(sys), false)
	}
	hot := profile.HotLoopParams{MinWeightFrac: 0.001, MinAvgIters: 1.5}
	for seed := int64(1); seed <= 60; seed++ {
		name := fmt.Sprintf("mcgen-%d", seed)
		sys, err := scaf.Load(name, mcgen.New(seed).Program(), scaf.Options{HotLoops: &hot})
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		checkDigest(t, name, sys.Prog, sys.Profiles, sessionPlan(sys), false)
	}

	violated := map[string]bool{}
	capped := false
	for _, vc := range violatingCases {
		prog, data, asserts := vc.build(t)
		rep := checkDigest(t, vc.name, prog, data, asserts, true)
		for _, v := range rep.Violations {
			violated[v.Assertion.Module] = true
		}
		if len(rep.Violations) == 100 {
			capped = true
		}
	}
	for _, m := range []string{spec.NameControlSpec, spec.NameValuePred, spec.NameReadOnly, spec.NameShortLived, spec.NameResidue} {
		if !violated[m] {
			t.Errorf("no violating case reports a %s violation", m)
		}
	}
	if !capped {
		t.Error("no violating case reaches the 100-violation cap")
	}
}

// sessionPlan builds the validation plan the way a session create does:
// a SCAF orchestrator joining every option and bailing out exhaustively,
// one plan per hot loop, assertions deduplicated by their string.
func sessionPlan(sys *scaf.System) []core.Assertion {
	o := sys.Orchestrator(scaf.SchemeSCAF, scaf.WithJoin(core.JoinAll), scaf.WithBailout(core.BailExhaustive))
	client := sys.Client()
	var asserts []core.Assertion
	seen := map[string]bool{}
	for _, l := range sys.HotLoops() {
		for _, a := range pdg.BuildPlan(client.ResolveLoop(o, l).Queries).Assertions {
			if k := a.String(); !seen[k] {
				seen[k] = true
				asserts = append(asserts, a)
			}
		}
	}
	return asserts
}

// checkDigest validates asserts and compares the report's digest with
// the pinned one. A plan is expected to validate cleanly unless violating
// is set.
func checkDigest(t *testing.T, name string, prog *cfg.Program, data *profile.Data, asserts []core.Assertion, violating bool) *validate.Report {
	t.Helper()
	rep, err := validate.Check(prog, data, asserts, interp.Options{})
	if err != nil {
		t.Fatalf("%s: validate: %v", name, err)
	}
	if rep.Failed() != violating {
		t.Errorf("%s: %d violations over %d checks", name, len(rep.Violations), rep.Checks)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "checks %d\n", rep.Checks)
	for _, v := range rep.Violations {
		fmt.Fprintf(&b, "violation %s %q\n", v.Assertion, v.Detail)
	}
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
	if want := validationWant[name]; got != want {
		t.Errorf("%s: validation digest %s, want %s (%d assertions, %d checks, %d violations)",
			name, got, want, len(asserts), rep.Checks, len(rep.Violations))
	}
	return rep
}

// violatingCase profiles a program, changes its input by patching a
// constant store, and returns the assertions to validate against it.
type violatingCase struct {
	name  string
	build func(t *testing.T) (*cfg.Program, *profile.Data, []core.Assertion)
}

// load compiles and profiles src.
func load(t *testing.T, name, src string) (*cfg.Program, *profile.Data) {
	t.Helper()
	sys, err := scaf.Load(name, src, scaf.Options{})
	if err != nil {
		t.Fatalf("%s: load: %v", name, err)
	}
	return sys.Prog, sys.Profiles
}

// setGlobal makes every store to global name in main store the constant
// v instead, as a different input would.
func setGlobal(t *testing.T, prog *cfg.Program, name string, v int64) {
	t.Helper()
	g := prog.Mod.GlobalNamed(name)
	patched := false
	prog.Mod.FuncNamed("main").Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore && in.Args[1] == ir.Value(g) {
			in.Args[0] = ir.CI(v)
			patched = true
		}
	})
	if !patched {
		t.Fatalf("no store of @%s in main", name)
	}
}

// findInstr returns the only instruction of main with op whose first
// operand is global name, or a cast of it ("" matches any operand).
func findInstr(t *testing.T, prog *cfg.Program, op ir.Op, name string) *ir.Instr {
	t.Helper()
	g := ir.Value(prog.Mod.GlobalNamed(name))
	var found []*ir.Instr
	prog.Mod.FuncNamed("main").Instrs(func(in *ir.Instr) {
		if in.Op != op {
			return
		}
		if name != "" {
			if len(in.Args) == 0 {
				return
			}
			v := in.Args[0]
			if c, ok := v.(*ir.Instr); ok && c.Op == ir.OpCast {
				v = c.Args[0]
			}
			if v != g {
				return
			}
		}
		found = append(found, in)
	})
	if len(found) != 1 {
		t.Fatalf("%d %v instructions on @%s in main, want 1", len(found), op, name)
	}
	return found[0]
}

// mainLoop returns the loop of main that ok accepts; it fails unless
// exactly one does.
func mainLoop(t *testing.T, prog *cfg.Program, ok func(*cfg.Loop) bool) *cfg.Loop {
	t.Helper()
	var found []*cfg.Loop
	for _, l := range prog.Forests[prog.Mod.FuncNamed("main")].All {
		if ok(l) {
			found = append(found, l)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d matching loops in main, want 1", len(found))
	}
	return found[0]
}

func controlAssert(prog *cfg.Program, data *profile.Data) core.Assertion {
	a := core.Assertion{Module: spec.NameControlSpec, Kind: "never-taken-edges"}
	for _, e := range data.Edge.BiasedEdges(prog.Mod.FuncNamed("main")) {
		a.Points = append(a.Points, core.Point{Block: e.From, EdgeTo: e.To})
	}
	return a
}

func siteAssert(module, kind string, site *ir.Instr, l *cfg.Loop) core.Assertion {
	return core.Assertion{Module: module, Kind: kind,
		Points:    []core.Point{{Instr: site}, {Block: l.Header}},
		Conflicts: []core.Point{{Instr: site}}}
}

// mixedSrc breaks every assertion kind once its gate drops below the
// trip count and cfg changes: the gated branch is the dead edge, writes
// the read-only table, leaks the short-lived scratch object and shifts
// the element pointer to an odd residue.
const mixedSrc = `
int g[16];
int* table;
int* scratch;
int* leak;
int cfg;
int gate;
int out;
void main() {
    cfg = 5;
    gate = 1000000;
    table = malloc(int, 16);
    for (int k = 0; k < 16; k++) {
        int* w = table;
        w[k] = k;
    }
    for (int i = 0; i < 60; i++) {
        int* t = table;
        out = out + t[i % 16] + cfg;
        scratch = malloc(int, 4);
        int* s = scratch;
        s[0] = i;
        int k = (i & 7) * 2;
        if (i > gate) {
            k = k + 1;
            t[0] = 0 - 1;
            leak = s;
        } else {
            free(scratch);
        }
        int* p = &g[k];
        out = out + (*p);
        (*p) = i;
    }
    print(out);
}
`

// mixedAsserts returns one assertion of every kind for mixedSrc's main
// loop.
func mixedAsserts(t *testing.T, prog *cfg.Program, data *profile.Data) []core.Assertion {
	t.Helper()
	mallocs := []*ir.Instr{}
	prog.Mod.FuncNamed("main").Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpMalloc {
			mallocs = append(mallocs, in)
		}
	})
	if len(mallocs) != 2 {
		t.Fatalf("%d mallocs in main, want 2", len(mallocs))
	}
	tableSite, scratchSite := mallocs[0], mallocs[1]
	loop := mainLoop(t, prog, func(l *cfg.Loop) bool {
		return data.Lifetime.ShortLived(l, profile.Site{In: scratchSite})
	})
	if !data.Lifetime.ReadOnly(loop, profile.Site{In: tableSite}) {
		t.Fatal("table is not read-only in the main loop")
	}
	elem := findInstr(t, prog, ir.OpIndex, "g")
	return []core.Assertion{
		controlAssert(prog, data),
		{Module: spec.NameValuePred, Kind: "value-check", Points: []core.Point{{Instr: findInstr(t, prog, ir.OpLoad, "cfg")}}},
		siteAssert(spec.NameReadOnly, "ro-heap", tableSite, loop),
		siteAssert(spec.NameShortLived, "sl-heap", scratchSite, loop),
		{Module: spec.NameResidue, Kind: "residue-mask", Points: []core.Point{{Instr: elem}}},
	}
}

var violatingCases = []violatingCase{
	{"mixed", func(t *testing.T) (*cfg.Program, *profile.Data, []core.Assertion) {
		// From iteration 41 on, every kind misspeculates in each
		// iteration, in program order.
		prog, data := load(t, "mixed", mixedSrc)
		asserts := mixedAsserts(t, prog, data)
		setGlobal(t, prog, "gate", 40)
		return prog, data, asserts
	}},
	{"mixed-capped", func(t *testing.T) (*cfg.Program, *profile.Data, []core.Assertion) {
		// cfg changes too: every iteration breaks the value check and,
		// past the gate, every other kind, until the report is full.
		prog, data := load(t, "mixed", mixedSrc)
		asserts := mixedAsserts(t, prog, data)
		setGlobal(t, prog, "gate", 30)
		setGlobal(t, prog, "cfg", 6)
		return prog, data, asserts
	}},
	{"nested-read-only", func(t *testing.T) (*cfg.Program, *profile.Data, []core.Assertion) {
		// Both loops of a nest protect the table the inner loop starts
		// writing once the gate drops.
		prog, data := load(t, "nested-read-only", `
int* table;
int gate;
int out;
void main() {
    gate = 1000000;
    table = malloc(int, 16);
    for (int j = 0; j < 10; j++) {
        for (int i = 0; i < 16; i++) {
            int* t = table;
            out = out + t[i];
            if (j * 16 + i > gate) {
                t[i] = i + j;
            }
        }
    }
    print(out);
}`)
		site := findInstr(t, prog, ir.OpMalloc, "")
		outer := mainLoop(t, prog, func(l *cfg.Loop) bool { return l.Depth == 1 })
		inner := mainLoop(t, prog, func(l *cfg.Loop) bool { return l.Depth == 2 })
		asserts := []core.Assertion{
			siteAssert(spec.NameReadOnly, "ro-inner", site, inner),
			siteAssert(spec.NameReadOnly, "ro-outer", site, outer),
		}
		setGlobal(t, prog, "gate", 120)
		return prog, data, asserts
	}},
	{"short-lived-pair", func(t *testing.T) (*cfg.Program, *profile.Data, []core.Assertion) {
		// Two sites leak once the gate drops; they are installed in the
		// reverse of allocation order.
		prog, data := load(t, "short-lived-pair", `
int* sa;
int* sb;
int gate;
int out;
void main() {
    gate = 1000000;
    for (int i = 0; i < 50; i++) {
        sa = malloc(int, 4);
        sb = malloc(int, 4);
        int* a = sa;
        int* b = sb;
        a[0] = i;
        b[0] = i;
        out = out + a[0] + b[0];
        if (i <= gate) {
            free(sa);
            free(sb);
        }
    }
    print(out);
}`)
		var ms []*ir.Instr
		prog.Mod.FuncNamed("main").Instrs(func(in *ir.Instr) {
			if in.Op == ir.OpMalloc {
				ms = append(ms, in)
			}
		})
		loop := mainLoop(t, prog, func(*cfg.Loop) bool { return true })
		asserts := []core.Assertion{
			siteAssert(spec.NameShortLived, "sl-b", ms[1], loop),
			siteAssert(spec.NameShortLived, "sl-a", ms[0], loop),
		}
		setGlobal(t, prog, "gate", 35)
		return prog, data, asserts
	}},
}

// validationWant holds each program's report digest, computed before
// validation learned to pay only for the checks it installs.
var validationWant = map[string]string{
	"052.alvinn":       "f5e71587210ede73137644844cb91dee49b09b3bb88ad5fc1982317f47322ac0",
	"056.ear":          "42bd8a91be271b92bbf7baf9e60e61a452fc3e75697166d071d96cad546cebf0",
	"129.compress":     "dd459f65af409607b271b865d48d005aa2fcb1d5aaa17cf534bc2ab030946251",
	"164.gzip":         "dd459f65af409607b271b865d48d005aa2fcb1d5aaa17cf534bc2ab030946251",
	"175.vpr":          "dd459f65af409607b271b865d48d005aa2fcb1d5aaa17cf534bc2ab030946251",
	"179.art":          "dd459f65af409607b271b865d48d005aa2fcb1d5aaa17cf534bc2ab030946251",
	"181.mcf":          "7fbd8ddc8346be231764cdbcf5a22b609b382cb3a4cc1ccb611f19d752dca803",
	"183.equake":       "38015827a155a58163edc9901034262a86b915b6713b8ac2975521feda323570",
	"429.mcf":          "4d026dd427e3e4f8fae99968aac8f9732716fc2eada56f26e0b01d353bb95d15",
	"456.hmmer":        "7c38fad0a95f9c2b35f0bdde6eae87570a7de2c35d11678bb922af208df7e6ff",
	"462.libquantum":   "dd459f65af409607b271b865d48d005aa2fcb1d5aaa17cf534bc2ab030946251",
	"470.lbm":          "dd459f65af409607b271b865d48d005aa2fcb1d5aaa17cf534bc2ab030946251",
	"482.sphinx3":      "6d0d478c6918d09a1dbd71d1d723448d2b9562404449beb977d72cfd90e666e6",
	"519.lbm":          "dd459f65af409607b271b865d48d005aa2fcb1d5aaa17cf534bc2ab030946251",
	"525.x264":         "eceb17ae5a6a70fd9ead581c92b9106f6db2430250cfb9d612d63a838689bbb4",
	"544.nab":          "8966c6f3554af00d8d18600ee375143f9f7c03e6b4186858e01db52f95bdcca4",
	"mcgen-1":          "363465b17e058b2a7cb466aab2929e1599559b5a4cb5919d74039f41daea3007",
	"mcgen-2":          "dd459f65af409607b271b865d48d005aa2fcb1d5aaa17cf534bc2ab030946251",
	"mcgen-3":          "8f6018505a5ef92e3b91f3f28c0e4a33aab46cb961d63584f2707573e7fe015e",
	"mcgen-4":          "1a16b73e3d98eff01fb429987abafea0c1a62d060cd10992bd47c4fcba3beff5",
	"mcgen-5":          "6f503dfeb10bd5d949993c826a7df32e08a96e88523f60932a0db60a6217a31f",
	"mcgen-6":          "363465b17e058b2a7cb466aab2929e1599559b5a4cb5919d74039f41daea3007",
	"mcgen-7":          "dd459f65af409607b271b865d48d005aa2fcb1d5aaa17cf534bc2ab030946251",
	"mcgen-8":          "8f6018505a5ef92e3b91f3f28c0e4a33aab46cb961d63584f2707573e7fe015e",
	"mcgen-9":          "363465b17e058b2a7cb466aab2929e1599559b5a4cb5919d74039f41daea3007",
	"mcgen-10":         "b9af6088d4239434e1f2d37d38bd63506bd58b69699d894316ad007433b3f166",
	"mcgen-11":         "363465b17e058b2a7cb466aab2929e1599559b5a4cb5919d74039f41daea3007",
	"mcgen-12":         "6f503dfeb10bd5d949993c826a7df32e08a96e88523f60932a0db60a6217a31f",
	"mcgen-13":         "8f6018505a5ef92e3b91f3f28c0e4a33aab46cb961d63584f2707573e7fe015e",
	"mcgen-14":         "719ba87ade936fb69c541e186a4c8254167c6fd9e7d89eaf30e12223232dc5e3",
	"mcgen-15":         "bf955ced22920c98173600619ad658fa1994692ea50ff44bd0743544c43656e8",
	"mcgen-16":         "b9af6088d4239434e1f2d37d38bd63506bd58b69699d894316ad007433b3f166",
	"mcgen-17":         "363465b17e058b2a7cb466aab2929e1599559b5a4cb5919d74039f41daea3007",
	"mcgen-18":         "363465b17e058b2a7cb466aab2929e1599559b5a4cb5919d74039f41daea3007",
	"mcgen-19":         "1a16b73e3d98eff01fb429987abafea0c1a62d060cd10992bd47c4fcba3beff5",
	"mcgen-20":         "8f6018505a5ef92e3b91f3f28c0e4a33aab46cb961d63584f2707573e7fe015e",
	"mcgen-21":         "f8860ba00a9fce9c648ff03ba6df3ec5a15c7e0c793de6ad46ce9468d986010d",
	"mcgen-22":         "8f6018505a5ef92e3b91f3f28c0e4a33aab46cb961d63584f2707573e7fe015e",
	"mcgen-23":         "e0bb154259ce0942cf9a6316015182fd7e784308cc0ed1a19d89a8d2636d98a5",
	"mcgen-24":         "8f6018505a5ef92e3b91f3f28c0e4a33aab46cb961d63584f2707573e7fe015e",
	"mcgen-25":         "1a16b73e3d98eff01fb429987abafea0c1a62d060cd10992bd47c4fcba3beff5",
	"mcgen-26":         "1a16b73e3d98eff01fb429987abafea0c1a62d060cd10992bd47c4fcba3beff5",
	"mcgen-27":         "5861b79a25968f0daff3029bfacfc1bbfffbff5d5041e1fda73e553cdbf9649f",
	"mcgen-28":         "dd459f65af409607b271b865d48d005aa2fcb1d5aaa17cf534bc2ab030946251",
	"mcgen-29":         "8f6018505a5ef92e3b91f3f28c0e4a33aab46cb961d63584f2707573e7fe015e",
	"mcgen-30":         "1a16b73e3d98eff01fb429987abafea0c1a62d060cd10992bd47c4fcba3beff5",
	"mcgen-31":         "dd459f65af409607b271b865d48d005aa2fcb1d5aaa17cf534bc2ab030946251",
	"mcgen-32":         "dd459f65af409607b271b865d48d005aa2fcb1d5aaa17cf534bc2ab030946251",
	"mcgen-33":         "1a16b73e3d98eff01fb429987abafea0c1a62d060cd10992bd47c4fcba3beff5",
	"mcgen-34":         "8f6018505a5ef92e3b91f3f28c0e4a33aab46cb961d63584f2707573e7fe015e",
	"mcgen-35":         "dd459f65af409607b271b865d48d005aa2fcb1d5aaa17cf534bc2ab030946251",
	"mcgen-36":         "dd459f65af409607b271b865d48d005aa2fcb1d5aaa17cf534bc2ab030946251",
	"mcgen-37":         "dd459f65af409607b271b865d48d005aa2fcb1d5aaa17cf534bc2ab030946251",
	"mcgen-38":         "dd459f65af409607b271b865d48d005aa2fcb1d5aaa17cf534bc2ab030946251",
	"mcgen-39":         "363465b17e058b2a7cb466aab2929e1599559b5a4cb5919d74039f41daea3007",
	"mcgen-40":         "6f503dfeb10bd5d949993c826a7df32e08a96e88523f60932a0db60a6217a31f",
	"mcgen-41":         "1a16b73e3d98eff01fb429987abafea0c1a62d060cd10992bd47c4fcba3beff5",
	"mcgen-42":         "8f6018505a5ef92e3b91f3f28c0e4a33aab46cb961d63584f2707573e7fe015e",
	"mcgen-43":         "1a16b73e3d98eff01fb429987abafea0c1a62d060cd10992bd47c4fcba3beff5",
	"mcgen-44":         "363465b17e058b2a7cb466aab2929e1599559b5a4cb5919d74039f41daea3007",
	"mcgen-45":         "8f6018505a5ef92e3b91f3f28c0e4a33aab46cb961d63584f2707573e7fe015e",
	"mcgen-46":         "0d5a73c269041600693ab62827b5d797a63a77a938cf5223bc56187f10878c47",
	"mcgen-47":         "bf955ced22920c98173600619ad658fa1994692ea50ff44bd0743544c43656e8",
	"mcgen-48":         "dd459f65af409607b271b865d48d005aa2fcb1d5aaa17cf534bc2ab030946251",
	"mcgen-49":         "e13153e45632f6cc139384522cc04006b43f803adcfe96d668965295ce9d9f83",
	"mcgen-50":         "8f6018505a5ef92e3b91f3f28c0e4a33aab46cb961d63584f2707573e7fe015e",
	"mcgen-51":         "e13153e45632f6cc139384522cc04006b43f803adcfe96d668965295ce9d9f83",
	"mcgen-52":         "363465b17e058b2a7cb466aab2929e1599559b5a4cb5919d74039f41daea3007",
	"mcgen-53":         "6f503dfeb10bd5d949993c826a7df32e08a96e88523f60932a0db60a6217a31f",
	"mcgen-54":         "363465b17e058b2a7cb466aab2929e1599559b5a4cb5919d74039f41daea3007",
	"mcgen-55":         "dd459f65af409607b271b865d48d005aa2fcb1d5aaa17cf534bc2ab030946251",
	"mcgen-56":         "dd459f65af409607b271b865d48d005aa2fcb1d5aaa17cf534bc2ab030946251",
	"mcgen-57":         "e13153e45632f6cc139384522cc04006b43f803adcfe96d668965295ce9d9f83",
	"mcgen-58":         "dd459f65af409607b271b865d48d005aa2fcb1d5aaa17cf534bc2ab030946251",
	"mcgen-59":         "363465b17e058b2a7cb466aab2929e1599559b5a4cb5919d74039f41daea3007",
	"mcgen-60":         "363465b17e058b2a7cb466aab2929e1599559b5a4cb5919d74039f41daea3007",
	"mixed":            "3d8212b002d901653c175a4bb3dbb41cd45d00d57e22bf2971b36215eb84ee40",
	"mixed-capped":     "b50270752d18587c8da682b05210d7a5add8eac5b15c00b84b90d7eb3190586d",
	"nested-read-only": "dae5481c5391332739d0879e94916097546d13bb8ae2be16d80af06e02687ab9",
	"short-lived-pair": "489d7912641f0c81b40fcf446a7428b13d67084f462fe8c13bdba7f362f87147",
}
