package core

import (
	"testing"

	"scaf/internal/ir"
)

// fakeModule returns canned responses and can issue premise queries.
type fakeModule struct {
	BaseModule
	name    string
	kind    ModuleKind
	alias   func(q *AliasQuery, h Handle) AliasResponse
	modref  func(q *ModRefQuery, h Handle) ModRefResponse
	queried int
}

func (f *fakeModule) Name() string     { return f.name }
func (f *fakeModule) Kind() ModuleKind { return f.kind }

func (f *fakeModule) Alias(q *AliasQuery, h Handle) AliasResponse {
	f.queried++
	if f.alias == nil {
		return MayAliasResponse()
	}
	return f.alias(q, h)
}

func (f *fakeModule) ModRef(q *ModRefQuery, h Handle) ModRefResponse {
	f.queried++
	if f.modref == nil {
		return ModRefConservative()
	}
	return f.modref(q, h)
}

func aq() *AliasQuery {
	return &AliasQuery{L1: MemLoc{Ptr: ir.CI(1), Size: 8}, L2: MemLoc{Ptr: ir.CI(2), Size: 8}}
}

func TestOrchestratorPrecisionWins(t *testing.T) {
	m1 := &fakeModule{name: "weak", alias: func(q *AliasQuery, h Handle) AliasResponse {
		return AliasFact(PartialAlias, "weak")
	}}
	m2 := &fakeModule{name: "strong", alias: func(q *AliasQuery, h Handle) AliasResponse {
		return AliasFact(NoAlias, "strong")
	}}
	o := NewOrchestrator(Config{Modules: []Module{m1, m2}})
	r := o.Alias(aq())
	if r.Result != NoAlias {
		t.Errorf("result = %s", r.Result)
	}
	if len(r.Contribs) != 1 || r.Contribs[0] != "strong" {
		t.Errorf("contribs = %v", r.Contribs)
	}
}

func TestOrchestratorBailsOnDefiniteAffordable(t *testing.T) {
	m1 := &fakeModule{name: "first", alias: func(q *AliasQuery, h Handle) AliasResponse {
		return AliasFact(NoAlias, "first")
	}}
	m2 := &fakeModule{name: "second"}
	o := NewOrchestrator(Config{Modules: []Module{m1, m2}})
	o.Alias(aq())
	if m2.queried != 0 {
		t.Error("second module should not be consulted after definite free result")
	}
}

func TestOrchestratorSkipsProhibitiveBail(t *testing.T) {
	exp := Assertion{Module: "pts", Kind: "objects", Cost: Prohibitive}
	m1 := &fakeModule{name: "pts", alias: func(q *AliasQuery, h Handle) AliasResponse {
		return AliasSpec(NoAlias, "pts", exp)
	}}
	m2 := &fakeModule{name: "cheap", alias: func(q *AliasQuery, h Handle) AliasResponse {
		return AliasSpec(NoAlias, "cheap", Assertion{Module: "cheap", Kind: "k", Cost: 5})
	}}
	o := NewOrchestrator(Config{Modules: []Module{m1, m2}})
	r := o.Alias(aq())
	if r.Result != NoAlias {
		t.Fatalf("result = %s", r.Result)
	}
	if MinCost(r.Options) != 5 {
		t.Errorf("min cost = %g, want the cheap option", MinCost(r.Options))
	}
	if m2.queried == 0 {
		t.Error("search must continue past prohibitively-priced definite answers")
	}
}

func TestModRefModTimesRef(t *testing.T) {
	a1 := Assertion{Module: "m1", Kind: "a", Cost: 1}
	a2 := Assertion{Module: "m2", Kind: "b", Cost: 2}
	m1 := &fakeModule{name: "m1", modref: func(q *ModRefQuery, h Handle) ModRefResponse {
		return ModRefSpec(Mod, "m1", a1)
	}}
	m2 := &fakeModule{name: "m2", modref: func(q *ModRefQuery, h Handle) ModRefResponse {
		return ModRefSpec(Ref, "m2", a2)
	}}
	o := NewOrchestrator(Config{Modules: []Module{m1, m2}})
	r := o.ModRef(&ModRefQuery{})
	if r.Result != NoModRef {
		t.Fatalf("Mod x Ref should join to NoModRef, got %s", r.Result)
	}
	if MinCost(r.Options) != 3 {
		t.Errorf("combined cost = %g, want 3", MinCost(r.Options))
	}
	if len(r.Contribs) != 2 {
		t.Errorf("contribs = %v", r.Contribs)
	}
}

func TestModRefModTimesRefConflict(t *testing.T) {
	g := &ir.Global{GName: "x", Elem: ir.Int}
	p := Point{G: g}
	a1 := Assertion{Module: "m1", Kind: "a", Cost: 1, Conflicts: []Point{p}}
	a2 := Assertion{Module: "m2", Kind: "b", Cost: 2, Conflicts: []Point{p}}
	m1 := &fakeModule{name: "m1", modref: func(q *ModRefQuery, h Handle) ModRefResponse {
		return ModRefSpec(Mod, "m1", a1)
	}}
	m2 := &fakeModule{name: "m2", modref: func(q *ModRefQuery, h Handle) ModRefResponse {
		return ModRefSpec(Ref, "m2", a2)
	}}
	o := NewOrchestrator(Config{Modules: []Module{m1, m2}, Bailout: BailExhaustive})
	r := o.ModRef(&ModRefQuery{})
	if r.Result == NoModRef {
		t.Error("conflicting assertions must not combine to NoModRef")
	}
	if o.Stats().Conflicts == 0 {
		t.Error("conflict not counted")
	}
}

func TestPremiseRoutingCollaborative(t *testing.T) {
	solver := &fakeModule{name: "solver", alias: func(q *AliasQuery, h Handle) AliasResponse {
		return AliasFact(MustAlias, "solver")
	}}
	asker := &fakeModule{name: "asker", modref: func(q *ModRefQuery, h Handle) ModRefResponse {
		pr := h.PremiseAlias(aq())
		if pr.Result == MustAlias {
			return ModRefResponse{Result: NoModRef, Options: Unconditional(),
				Contribs: MergeContribs([]string{"asker"}, pr.Contribs)}
		}
		return ModRefConservative()
	}}
	o := NewOrchestrator(Config{
		Modules: []Module{asker, solver},
		Routing: RouteCollaborative,
	})
	r := o.ModRef(&ModRefQuery{})
	if r.Result != NoModRef {
		t.Fatalf("collaborative premise failed: %s", r.Result)
	}
	if len(r.Contribs) != 2 {
		t.Errorf("contribs = %v, want asker+solver", r.Contribs)
	}
	if o.Stats().PremiseQueries == 0 {
		t.Error("premise query not counted")
	}
}

func TestPremiseRoutingIsolated(t *testing.T) {
	solver := &fakeModule{name: "solver", alias: func(q *AliasQuery, h Handle) AliasResponse {
		return AliasFact(MustAlias, "solver")
	}}
	asker := &fakeModule{name: "asker", modref: func(q *ModRefQuery, h Handle) ModRefResponse {
		pr := h.PremiseAlias(aq())
		if pr.Result == MustAlias {
			return ModRefFact(NoModRef, "asker")
		}
		return ModRefConservative()
	}}
	o := NewOrchestrator(Config{
		Modules: []Module{asker, solver},
		Routing: RouteIsolated,
		Groups:  map[string]string{"asker": "a", "solver": "b"},
	})
	r := o.ModRef(&ModRefQuery{})
	if r.Result == NoModRef {
		t.Error("isolated routing must not let solver answer asker's premise")
	}

	// Same group: collaboration allowed again.
	o2 := NewOrchestrator(Config{
		Modules: []Module{asker, solver},
		Routing: RouteIsolated,
		Groups:  map[string]string{"asker": "g", "solver": "g"},
	})
	if r2 := o2.ModRef(&ModRefQuery{}); r2.Result != NoModRef {
		t.Errorf("same-group premise should resolve, got %s", r2.Result)
	}
}

func TestPremiseCycleBreaks(t *testing.T) {
	var o *Orchestrator
	m := &fakeModule{name: "loopy"}
	m.alias = func(q *AliasQuery, h Handle) AliasResponse {
		// Ask the very same query again: must get a conservative answer,
		// not infinite recursion.
		return h.PremiseAlias(q)
	}
	o = NewOrchestrator(Config{Modules: []Module{m}})
	r := o.Alias(aq())
	if r.Result != MayAlias {
		t.Errorf("cycle should resolve conservatively, got %s", r.Result)
	}
}

func TestDepthLimit(t *testing.T) {
	m := &fakeModule{name: "deep"}
	i := 0
	m.alias = func(q *AliasQuery, h Handle) AliasResponse {
		i++
		nq := *q
		nq.L1.Size = int64(i) // fresh query each time
		return h.PremiseAlias(&nq)
	}
	o := NewOrchestrator(Config{Modules: []Module{m}, MaxDepth: 5})
	r := o.Alias(aq())
	if r.Result != MayAlias {
		t.Errorf("depth limit should yield conservative result, got %s", r.Result)
	}
	if i > 10 {
		t.Errorf("premise recursion ran %d times, expected depth-limited", i)
	}
}

func TestStripDesired(t *testing.T) {
	var seen DesiredAlias = WantNoAlias
	m := &fakeModule{name: "m", alias: func(q *AliasQuery, h Handle) AliasResponse {
		seen = q.Desired
		return MayAliasResponse()
	}}
	q := aq()
	q.Desired = WantMustAlias
	o := NewOrchestrator(Config{Modules: []Module{m}, StripDesired: true})
	o.Alias(q)
	if seen != AnyAlias {
		t.Errorf("desired not stripped: %s", seen)
	}
	o2 := NewOrchestrator(Config{Modules: []Module{m}})
	o2.Alias(q)
	if seen != WantMustAlias {
		t.Errorf("desired should pass through: %s", seen)
	}
}

// The desired result gates slow paths inside modules, never a whole
// module: a query seeking MustAlias is asked of every module in turn,
// and an "undesired" definite answer still settles it.
func TestDesiredResultSkipsNoModule(t *testing.T) {
	var seen []DesiredAlias
	gated := &fakeModule{name: "gated", alias: func(q *AliasQuery, h Handle) AliasResponse {
		seen = append(seen, q.Desired)
		if q.Desired == WantMustAlias {
			return MayAliasResponse() // its MustAlias path is the slow one
		}
		return AliasFact(NoAlias, "gated")
	}}
	must := &fakeModule{name: "must", alias: func(q *AliasQuery, h Handle) AliasResponse {
		seen = append(seen, q.Desired)
		return AliasFact(MustAlias, "must")
	}}
	o := NewOrchestrator(Config{Modules: []Module{gated, must}})
	q := aq()
	q.Desired = WantMustAlias
	if r := o.Alias(q); r.Result != MustAlias {
		t.Fatalf("result = %s, want MustAlias from the second module", r.Result)
	}
	if len(seen) != 2 || seen[0] != WantMustAlias || seen[1] != WantMustAlias {
		t.Fatalf("modules saw %v, want both asked with %s", seen, WantMustAlias)
	}
	if n := o.Stats().ModuleEvals; n != 2 {
		t.Fatalf("ModuleEvals = %d, want 2", n)
	}

	undesired := &fakeModule{name: "undesired", alias: func(q *AliasQuery, h Handle) AliasResponse {
		return AliasFact(NoAlias, "undesired")
	}}
	must.queried = 0
	o = NewOrchestrator(Config{Modules: []Module{undesired, must}})
	if r := o.Alias(q); r.Result != NoAlias {
		t.Fatalf("result = %s, want the undesired NoAlias to settle the query", r.Result)
	}
	if must.queried != 0 {
		t.Fatal("a module was asked after a free definite answer settled the query")
	}
}

func TestConflictingResultsPreferFree(t *testing.T) {
	m1 := &fakeModule{name: "spec", alias: func(q *AliasQuery, h Handle) AliasResponse {
		return AliasSpec(NoAlias, "spec", Assertion{Module: "spec", Kind: "k", Cost: 1})
	}}
	m2 := &fakeModule{name: "fact", alias: func(q *AliasQuery, h Handle) AliasResponse {
		return AliasFact(MustAlias, "fact")
	}}
	o := NewOrchestrator(Config{Modules: []Module{m1, m2}, Bailout: BailExhaustive})
	r := o.Alias(aq())
	if r.Result != MustAlias {
		t.Errorf("free result must win conflicts, got %s", r.Result)
	}
}

func TestOptionAlgebra(t *testing.T) {
	a := Assertion{Module: "m", Kind: "a", Cost: 1}
	b := Assertion{Module: "m", Kind: "b", Cost: 2}
	s1 := []Option{{Asserts: []Assertion{a}}}
	s2 := []Option{{Asserts: []Assertion{b}}}

	cross := CrossOptions(s1, s2)
	if len(cross) != 1 || cross[0].Cost() != 3 {
		t.Errorf("cross = %v", cross)
	}
	union := UnionOptions(s1, s2)
	if len(union) != 2 {
		t.Errorf("union = %v", union)
	}
	cheap := CheapestOf(union)
	if len(cheap) != 1 || cheap[0].Cost() != 1 {
		t.Errorf("cheapest = %v", cheap)
	}
	// Deduplication: same assertion twice costs once.
	both := CrossOptions(s1, s1)
	if len(both) != 1 || both[0].Cost() != 1 {
		t.Errorf("self-cross should dedupe: %v", both)
	}
}

func TestOptionConflictDetection(t *testing.T) {
	g := &ir.Global{GName: "site", Elem: ir.Int}
	p := Point{G: g}
	roA := Assertion{Module: "ro", Kind: "heap", Cost: 1, Conflicts: []Point{p}}
	slA := Assertion{Module: "sl", Kind: "heap", Cost: 1, Conflicts: []Point{p}}
	s1 := []Option{{Asserts: []Assertion{roA}}}
	s2 := []Option{{Asserts: []Assertion{slA}}}
	if !OptionsConflict(s1, s2) {
		t.Error("same conflict point must conflict")
	}
	if CrossOptions(s1, s2) != nil {
		t.Error("cross of conflicting options must be empty")
	}
	// The same assertion does not conflict with itself.
	if OptionsConflict(s1, s1) {
		t.Error("identical assertions must not self-conflict")
	}
}

func TestDecompose(t *testing.T) {
	m := ir.NewModule("t")
	st := ir.NewStruct("pair", ir.Field{Name: "a", Ty: ir.Int}, ir.Field{Name: "b", Ty: ir.Int})
	m.Structs = append(m.Structs, st)
	f := m.NewFunc("f", ir.Void)
	b := f.NewBlock("entry")
	base := b.Malloc(st, ir.CI(64), "p")
	idx := b.IndexPtr(base, ir.CI(3))
	fld := b.FieldAddr(idx, 1)
	b.Ret()

	d := Decompose(fld)
	if d.Base != ir.Value(base) {
		t.Errorf("base = %v", d.Base)
	}
	if !d.KnownOff || d.Off != 3*16+8 {
		t.Errorf("off = %d known=%v, want 56", d.Off, d.KnownOff)
	}
	if !IsAllocationBase(base) {
		t.Error("malloc is an allocation base")
	}
	if sz, ok := BaseObjectSize(base); !ok || sz != 64 {
		t.Errorf("size = %d ok=%v", sz, ok)
	}
}

func TestUnderlyingBasesThroughPhi(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.Void, &ir.Param{PName: "c", Ty: ir.Int})
	entry := f.NewBlock("entry")
	a := entry.Malloc(ir.Int, ir.CI(8), "a")
	bAlloc := entry.Malloc(ir.Int, ir.CI(8), "b")
	then := f.NewBlock("then")
	els := f.NewBlock("else")
	join := f.NewBlock("join")
	entry.CondBr(f.Params[0], then, els)
	then.Br(join)
	els.Br(join)
	phi := join.Phi(ir.PointerTo(ir.Int), "p")
	phi.Args = []ir.Value{a, bAlloc}
	join.Ret()

	bases, complete := UnderlyingBases(phi, 10)
	if !complete || len(bases) != 2 {
		t.Errorf("bases = %v complete = %v", bases, complete)
	}
}
