package scaf

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"scaf/internal/cfg"
	"scaf/internal/core"
	"scaf/internal/interp"
	"scaf/internal/ir"
	"scaf/internal/memspec"
	"scaf/internal/profile"
	"scaf/internal/spec"
)

// motivatingExample is Figure 1/5 of the paper: a rarely-taken branch
// skips the store i1 that would otherwise kill the cross-iteration data
// flow from i3 to i2.
const motivatingExample = `
int a;
int b;

int foo(int x) { return x + 1; }

void main() {
    for (int i = 0; i < 2000; i++) {
        if (i > 1000000) {     // "rare": never taken during profiling
            b = b + 7;         // no writes to a
        } else {
            a = i;             // i1
        }
        b = foo(a);            // i2 reads a
        a = i * 2;             // i3 writes a
    }
    print(b);
}
`

// findAccesses locates i2 (the load of a at the join) and i3 (the store
// of a at the end of the iteration).
func findMotivating(t *testing.T, s *System) (i2, i3 *ir.Instr) {
	t.Helper()
	g := s.Mod.GlobalNamed("a")
	main := s.Mod.FuncNamed("main")
	loop := s.HotLoops()
	if len(loop) != 1 {
		t.Fatalf("hot loops = %d, want 1", len(loop))
	}
	var stores []*ir.Instr
	main.Instrs(func(in *ir.Instr) {
		if !loop[0].ContainsInstr(in) {
			return
		}
		switch in.Op {
		case ir.OpLoad:
			if in.Args[0] == ir.Value(g) {
				i2 = in
			}
		case ir.OpStore:
			if in.Args[1] == ir.Value(g) {
				stores = append(stores, in)
			}
		}
	})
	if i2 == nil || len(stores) != 2 {
		t.Fatalf("accesses not found (stores=%d):\n%s", len(stores), ir.FormatFunc(main))
	}
	// i3 is the store after the load (larger instruction index).
	i3 = stores[0]
	if stores[1].ID > i3.ID {
		i3 = stores[1]
	}
	return i2, i3
}

func loadMotivating(t *testing.T) *System {
	t.Helper()
	s, err := Load("motivating", motivatingExample, Options{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return s
}

// TestMotivatingExample reproduces the paper's Fig. 5/6 walk-through:
// the cross-iteration flow i3→i2 is not disprovable by memory analysis
// alone nor by composition by confluence, but SCAF resolves it through
// control-speculation × kill-flow collaboration at zero validation cost.
func TestMotivatingExample(t *testing.T) {
	s := loadMotivating(t)
	i2, i3 := findMotivating(t, s)
	loop := s.HotLoops()[0]
	q := func() *core.ModRefQuery {
		return &core.ModRefQuery{
			I1: i3, I2: i2, Rel: core.Before, Loop: loop,
			DT: s.Prog.Dom[loop.Fn], PDT: s.Prog.PostDom[loop.Fn],
		}
	}

	caf := s.Orchestrator(SchemeCAF).ModRef(q())
	if caf.Result == core.NoModRef {
		t.Fatalf("CAF must NOT disprove the dependence statically, got %s", caf.Result)
	}

	conf := s.Orchestrator(SchemeConfluence).ModRef(q())
	if conf.Result == core.NoModRef {
		t.Fatalf("confluence must NOT disprove the dependence, got %s", conf.Result)
	}

	scafResp := s.Orchestrator(SchemeSCAF).ModRef(q())
	if scafResp.Result != core.NoModRef {
		t.Fatalf("SCAF should disprove the dependence, got %s", scafResp.Result)
	}
	// The answer must be predicated on a control-speculation assertion at
	// (practically) zero validation cost, and credit both collaborating
	// modules.
	if core.MinCost(scafResp.Options) != core.CostCtrlCheck {
		t.Errorf("cost = %g, want control-speculation cost %g",
			core.MinCost(scafResp.Options), core.CostCtrlCheck)
	}
	foundCtrl := false
	for _, o := range scafResp.Options {
		for _, a := range o.Asserts {
			if a.Module == spec.NameControlSpec && a.Kind == "never-taken-edges" {
				foundCtrl = true
				if len(a.Points) == 0 {
					t.Error("control assertion has no transform points")
				}
			}
		}
	}
	if !foundCtrl {
		t.Errorf("no control-speculation assertion in options: %v", scafResp.Options)
	}
	wantContrib := map[string]bool{"control-spec": false, "kill-flow": false}
	for _, c := range scafResp.Contribs {
		if _, ok := wantContrib[c]; ok {
			wantContrib[c] = true
		}
	}
	for mod, seen := range wantContrib {
		if !seen {
			t.Errorf("contributor %s missing from %v", mod, scafResp.Contribs)
		}
	}
}

// TestMotivatingPDG checks the client-level metric ordering on the
// motivating example: SCAF ≥ confluence ≥ CAF.
func TestMotivatingPDG(t *testing.T) {
	s := loadMotivating(t)
	loop := s.HotLoops()[0]
	client := s.Client()

	caf := client.AnalyzeLoop(s.Orchestrator(SchemeCAF), loop).NoDepPct()
	conf := client.AnalyzeLoop(s.Orchestrator(SchemeConfluence), loop).NoDepPct()
	sc := client.AnalyzeLoop(s.Orchestrator(SchemeSCAF), loop).NoDepPct()

	if conf < caf {
		t.Errorf("confluence (%.1f) below CAF (%.1f)", conf, caf)
	}
	if sc <= conf {
		t.Errorf("SCAF (%.1f) should beat confluence (%.1f) on the motivating example", sc, conf)
	}
}

// TestMemSpecBaseline: the dependence in the motivating example never
// manifests during profiling (the rare branch is never taken), so memory
// speculation also removes it — at shadow-memory cost.
func TestMemSpecBaseline(t *testing.T) {
	s := loadMotivating(t)
	i2, i3 := findMotivating(t, s)
	loop := s.HotLoops()[0]
	ms := s.MemSpec()
	if !ms.NoDep(loop, i3, i2, core.Before) {
		t.Error("memory speculation should cover the non-observed dependence")
	}
	a := ms.Assertion(i3, i2)
	if a.Cost < core.CostMemSpecCheck*2000 {
		t.Errorf("memory speculation cost %g suspiciously low", a.Cost)
	}
	// A dependence that DID manifest must not be speculated away:
	// i3 (store a, iter i) → i2 (load a, iter i+1) never manifests here
	// because i1 kills it every iteration; but the intra-iteration flow
	// i1→i2 does manifest.
	var i1 *ir.Instr
	g := s.Mod.GlobalNamed("a")
	s.Mod.FuncNamed("main").Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore && in.Args[1] == ir.Value(g) && in != i3 {
			i1 = in
		}
	})
	if i1 == nil {
		t.Fatal("i1 not found")
	}
	if ms.NoDep(loop, i1, i2, core.Same) {
		t.Error("manifested intra-iteration flow i1→i2 must be observed")
	}
}

// memSpecAnswers lists ms's NoDep answer for every ordered pair of the
// memory instructions in each hot loop of s, under both relations.
func memSpecAnswers(s *System, ms *memspec.MemSpec) []bool {
	var out []bool
	for _, l := range s.HotLoops() {
		var mem []*ir.Instr
		for _, b := range l.Header.Fn.Blocks {
			for _, in := range b.Instrs {
				if l.ContainsInstr(in) && in.AccessesMemory() {
					mem = append(mem, in)
				}
			}
		}
		for _, i1 := range mem {
			for _, i2 := range mem {
				out = append(out, ms.NoDep(l, i1, i2, core.Before), ms.NoDep(l, i1, i2, core.Same))
			}
		}
	}
	return out
}

// TestMemSpecCollectsOnce: Load runs no memory-dependence profiler, and
// eight concurrent first calls of MemSpec share one collection and give
// one set of answers. Run it under -race.
func TestMemSpecCollectsOnce(t *testing.T) {
	var runs atomic.Int32
	defer func(f func(*cfg.Program, interp.Options) (*profile.MemDepProfile, error)) { collectMemDep = f }(collectMemDep)
	collectMemDep = func(prog *cfg.Program, opts interp.Options) (*profile.MemDepProfile, error) {
		runs.Add(1)
		return profile.CollectMemDep(prog, opts)
	}
	s := loadMotivating(t)
	if s.memdep != nil || runs.Load() != 0 {
		t.Fatal("Load collected the memory-dependence profile")
	}
	answers := make([][]bool, 8)
	var wg sync.WaitGroup
	for g := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers[g] = memSpecAnswers(s, s.MemSpec())
		}()
	}
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("memory-dependence profile collected %d times, want 1", n)
	}
	if s.memdep == nil {
		t.Fatal("MemSpec left no memory-dependence profile")
	}
	if len(answers[0]) == 0 {
		t.Fatal("no memory instruction pairs in the hot loop")
	}
	for g := 1; g < len(answers); g++ {
		if !reflect.DeepEqual(answers[g], answers[0]) {
			t.Fatalf("goroutine %d's NoDep answers differ from goroutine 0's", g)
		}
	}
}

// TestMemSpecStructLiteralSystem: a System built by struct literal over
// Collect's profiles, as a caller that times each layer builds one,
// collects the dependences on its first MemSpec call and answers as a
// loaded System does.
func TestMemSpecStructLiteralSystem(t *testing.T) {
	loaded := loadMotivating(t)
	mod, err := Compile("motivating", motivatingExample)
	if err != nil {
		t.Fatal(err)
	}
	prog := cfg.NewProgram(mod)
	data, err := profile.Collect(prog, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lit := &System{Mod: mod, Prog: prog, Profiles: data}
	got := memSpecAnswers(lit, lit.MemSpec())
	if lit.memdep == nil {
		t.Fatal("MemSpec left no memory-dependence profile")
	}
	want := memSpecAnswers(loaded, loaded.MemSpec())
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("%d answers, want %d (and more than 0)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d: struct-literal System says %t, loaded System %t", i, got[i], want[i])
		}
	}
}

// TestMemSpecPanicsWhenRunsDiverge: MemSpec's run has the training run's
// step count as its budget, so profiles that claim fewer steps than the
// program takes make the run fail, and every call panics with its error
// instead of answering from no profile.
func TestMemSpecPanicsWhenRunsDiverge(t *testing.T) {
	s := loadMotivating(t)
	s.Profiles.Steps /= 2
	for call := 1; call <= 2; call++ {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("call %d: MemSpec answered after its run failed", call)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "instruction budget exceeded") {
					t.Fatalf("call %d: panic %q does not carry the run's error", call, msg)
				}
			}()
			s.MemSpec()
		}()
	}
}
