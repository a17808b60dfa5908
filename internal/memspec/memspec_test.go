package memspec

import (
	"testing"

	"scaf/internal/cfg"
	"scaf/internal/core"
	"scaf/internal/interp"
	"scaf/internal/ir"
	"scaf/internal/lower"
	"scaf/internal/profile"
)

// load builds the baseline over src's profiles, taking the dependences
// from a run of their own, as scaf.System.MemSpec does.
func load(t *testing.T, src string) (*MemSpec, *cfg.Program) {
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
	dep, err := profile.CollectMemDep(prog, interp.Options{})
	if err != nil {
		t.Fatalf("memdep: %v", err)
	}
	return New(data, dep), prog
}

const src = `
int buf[64];
int acc;
void main() {
    for (int i = 0; i < 200; i++) {
        buf[i % 64] = i;            // store
        acc = acc + buf[i % 64];    // loads + store acc
    }
    print(acc);
}
`

func findOps(t *testing.T, prog *cfg.Program) (loop *cfg.Loop, bufStore, bufLoad, accStore *ir.Instr) {
	t.Helper()
	main := prog.Mod.FuncNamed("main")
	loop = prog.Forests[main].All[0]
	bufG := prog.Mod.GlobalNamed("buf")
	accG := prog.Mod.GlobalNamed("acc")
	main.Instrs(func(in *ir.Instr) {
		ptr, _, ok := in.PointerOperand()
		if !ok || !loop.ContainsInstr(in) {
			return
		}
		base := core.Decompose(ptr).Base
		switch {
		case base == ir.Value(bufG) && in.Op == ir.OpStore:
			bufStore = in
		case base == ir.Value(bufG) && in.Op == ir.OpLoad:
			bufLoad = in
		case base == ir.Value(accG) && in.Op == ir.OpStore:
			accStore = in
		}
	})
	if bufStore == nil || bufLoad == nil || accStore == nil {
		t.Fatal("ops not found")
	}
	return
}

func TestMemSpecObservedVsNot(t *testing.T) {
	ms, prog := load(t, src)
	loop, bufStore, bufLoad, accStore := findOps(t, prog)

	// Intra-iteration flow buf-store -> buf-load manifests.
	if ms.NoDep(loop, bufStore, bufLoad, core.Same) {
		t.Error("manifested intra dep must not be speculated")
	}
	// Cross-iteration buf-store -> buf-load of the same slot is killed by
	// the same-iteration store, so it never manifests: speculable.
	if !ms.NoDep(loop, bufStore, bufLoad, core.Before) {
		t.Error("non-observed cross dep must be speculable")
	}
	// buf accesses never touch acc.
	if ms.NoDep(loop, accStore, accStore, core.Before) {
		t.Error("the acc recurrence's output dep manifests across iterations")
	}
}

func TestMemSpecModuleInterface(t *testing.T) {
	ms, prog := load(t, src)
	loop, bufStore, bufLoad, _ := findOps(t, prog)

	if ms.Kind() != core.Speculation || ms.Name() != Name {
		t.Error("module identity wrong")
	}
	r := ms.ModRef(&core.ModRefQuery{I1: bufStore, I2: bufLoad, Rel: core.Before, Loop: loop}, core.NoHelp{})
	if r.Result != core.NoModRef {
		t.Fatalf("module should speculate the non-observed dep: %s", r.Result)
	}
	// Expensive: cost = per-check x (executions of both endpoints).
	want := core.CostMemSpecCheck * float64(200+200)
	if got := core.MinCost(r.Options); got != want {
		t.Errorf("cost = %g, want %g", got, want)
	}
	// Observed dep: conservative.
	r = ms.ModRef(&core.ModRefQuery{I1: bufStore, I2: bufLoad, Rel: core.Same, Loop: loop}, core.NoHelp{})
	if r.Result != core.ModRef {
		t.Errorf("observed dep must stay: %s", r.Result)
	}
	// No loop context: conservative.
	r = ms.ModRef(&core.ModRefQuery{I1: bufStore, I2: bufLoad, Rel: core.Same}, core.NoHelp{})
	if r.Result != core.ModRef {
		t.Errorf("loopless query must be conservative: %s", r.Result)
	}
}

func TestMemSpecCostDominatesCheapChecks(t *testing.T) {
	ms, prog := load(t, src)
	_, bufStore, bufLoad, _ := findOps(t, prog)
	a := ms.Assertion(bufStore, bufLoad)
	if a.Cost <= core.CostHeapCheck*400 {
		t.Errorf("memory speculation must cost more than heap checks: %g", a.Cost)
	}
	if len(a.Points) != 2 {
		t.Errorf("assertion points = %d", len(a.Points))
	}
}
