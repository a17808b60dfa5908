package recovery

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"scaf/internal/core"
	"scaf/internal/ir"
)

// fakeModule returns canned responses.
type fakeModule struct {
	core.BaseModule
	name    string
	kind    core.ModuleKind
	alias   func(q *core.AliasQuery, h core.Handle) core.AliasResponse
	queried int
}

func (f *fakeModule) Name() string          { return f.name }
func (f *fakeModule) Kind() core.ModuleKind { return f.kind }

func (f *fakeModule) Alias(q *core.AliasQuery, h core.Handle) core.AliasResponse {
	f.queried++
	if f.alias == nil {
		return core.MayAliasResponse()
	}
	return f.alias(q, h)
}

func aqN(i int64) *core.AliasQuery {
	return &core.AliasQuery{
		L1: core.MemLoc{Ptr: ir.CI(2*i + 1), Size: 8},
		L2: core.MemLoc{Ptr: ir.CI(2*i + 2), Size: 8},
	}
}

func TestQuarantineBasics(t *testing.T) {
	q := New()
	if !q.Empty() {
		t.Fatal("fresh quarantine not empty")
	}
	if !q.AddAssert("a1", "violated") {
		t.Error("first AddAssert should report newly added")
	}
	if q.AddAssert("a1", "violated again") {
		t.Error("repeat AddAssert should not report newly added")
	}
	q.AddModule("chaos", "panicked")
	if q.Empty() {
		t.Error("non-empty quarantine reports Empty")
	}
	if !q.RevokedAssert("a1") || q.RevokedAssert("a2") {
		t.Error("RevokedAssert wrong")
	}
	if !q.ModuleQuarantined("chaos") || q.ModuleQuarantined("other") {
		t.Error("ModuleQuarantined wrong")
	}
	s := q.Snapshot()
	if !reflect.DeepEqual(s.Asserts, []string{"a1"}) || !reflect.DeepEqual(s.Modules, []string{"chaos"}) {
		t.Errorf("snapshot = %+v", s)
	}
	if s.Repeats != 1 {
		t.Errorf("repeats = %d, want 1", s.Repeats)
	}
	if len(s.Events) != 2 || s.Events[0].Kind != "assert" || s.Events[1].Kind != "module" {
		t.Errorf("events = %+v", s.Events)
	}
	if got := q.AssertKeys(); !reflect.DeepEqual(got, []string{"a1"}) {
		t.Errorf("AssertKeys = %v", got)
	}
}

func TestQuarantineEventCap(t *testing.T) {
	q := New()
	for i := 0; i < MaxEvents+10; i++ {
		q.AddAssert(fmt.Sprintf("a%d", i), "")
	}
	s := q.Snapshot()
	if len(s.Events) != MaxEvents {
		t.Errorf("events = %d, want cap %d", len(s.Events), MaxEvents)
	}
	if s.EventsDropped != 10 {
		t.Errorf("dropped = %d, want 10", s.EventsDropped)
	}
}

// With an empty quarantine the filter must be a byte-exact pass-through —
// same response, same option slice — or wrapped sessions would drift from
// unwrapped ones.
func TestFilterEmptyQuarantinePassThrough(t *testing.T) {
	orig := core.AliasSpec(core.NoAlias, "spec", core.Assertion{Module: "spec", Kind: "k", Cost: 1})
	m := &fakeModule{name: "spec", kind: core.Speculation,
		alias: func(q *core.AliasQuery, h core.Handle) core.AliasResponse { return orig }}
	wrapped := Wrap([]core.Module{m}, New())[0]
	got := wrapped.Alias(aqN(1), core.NoHelp{})
	if !reflect.DeepEqual(got, orig) {
		t.Errorf("response changed: %+v", got)
	}
	if &got.Options[0] != &orig.Options[0] {
		t.Error("options slice reallocated on the empty-quarantine path")
	}
	if wrapped.Name() != "spec" || wrapped.Kind() != core.Speculation {
		t.Error("Name/Kind not forwarded")
	}
}

// A module gates its slow paths on the query's desired result itself, so
// the wrapper must hand it the query unchanged, whether the quarantine is
// empty or filtering.
func TestFilterForwardsDesired(t *testing.T) {
	var seen []core.DesiredAlias
	m := &fakeModule{name: "spec", alias: func(q *core.AliasQuery, h core.Handle) core.AliasResponse {
		seen = append(seen, q.Desired)
		if q.Desired == core.WantMustAlias {
			return core.MayAliasResponse()
		}
		return core.AliasFact(core.NoAlias, "spec")
	}}
	qr := New()
	wrapped := Wrap([]core.Module{m}, qr)[0]
	ask := func(d core.DesiredAlias) core.AliasResult {
		q := aqN(1)
		q.Desired = d
		return wrapped.Alias(q, core.NoHelp{}).Result
	}
	if r := ask(core.WantMustAlias); r != core.MayAlias {
		t.Errorf("empty quarantine, %s: result = %s, want MayAlias", core.WantMustAlias, r)
	}
	qr.AddAssert(core.Assertion{Module: "other", Kind: "k", Cost: 1}.String(), "violated")
	if r := ask(core.WantMustAlias); r != core.MayAlias {
		t.Errorf("filtering quarantine, %s: result = %s, want MayAlias", core.WantMustAlias, r)
	}
	if r := ask(core.AnyAlias); r != core.NoAlias {
		t.Errorf("filtering quarantine, %s: result = %s, want NoAlias", core.AnyAlias, r)
	}
	want := []core.DesiredAlias{core.WantMustAlias, core.WantMustAlias, core.AnyAlias}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("module saw %v, want %v", seen, want)
	}
}

func TestFilterDropsQuarantinedOptions(t *testing.T) {
	aBad := core.Assertion{Module: "spec", Kind: "bad", Cost: 1}
	aOK := core.Assertion{Module: "spec", Kind: "ok", Cost: 2}
	m := &fakeModule{name: "spec", alias: func(q *core.AliasQuery, h core.Handle) core.AliasResponse {
		return core.AliasResponse{
			Result:   core.NoAlias,
			Options:  []core.Option{{Asserts: []core.Assertion{aBad}}, {Asserts: []core.Assertion{aOK}}},
			Contribs: []string{"spec"},
		}
	}}
	qr := New()
	qr.AddAssert(aBad.String(), "violated")
	wrapped := Wrap([]core.Module{m}, qr)[0]

	got := wrapped.Alias(aqN(1), core.NoHelp{})
	if got.Result != core.NoAlias || len(got.Options) != 1 {
		t.Fatalf("got %+v, want NoAlias with one surviving option", got)
	}
	if got.Options[0].Asserts[0].Kind != "ok" {
		t.Errorf("surviving option = %+v", got.Options[0])
	}

	// Quarantining the other assertion as well leaves nothing: the answer
	// degrades to the conservative one.
	qr.AddAssert(aOK.String(), "violated")
	got = wrapped.Alias(aqN(1), core.NoHelp{})
	if got.Result != core.MayAlias {
		t.Errorf("result = %s, want MayAlias once every option is quarantined", got.Result)
	}
	if qr.Snapshot().OptionsFiltered != 3 {
		t.Errorf("OptionsFiltered = %d, want 3", qr.Snapshot().OptionsFiltered)
	}
}

func TestFilterModuleQuarantineShortCircuits(t *testing.T) {
	m := &fakeModule{name: "spec", alias: func(q *core.AliasQuery, h core.Handle) core.AliasResponse {
		return core.AliasFact(core.NoAlias, "spec")
	}}
	qr := New()
	qr.AddModule("spec", "panicked")
	wrapped := Wrap([]core.Module{m}, qr)[0]
	got := wrapped.Alias(aqN(1), core.NoHelp{})
	if got.Result != core.MayAlias {
		t.Errorf("result = %s, want conservative", got.Result)
	}
	if m.queried != 0 {
		t.Error("quarantined module must never be re-entered")
	}
	if qr.Snapshot().ModuleSkips != 1 {
		t.Errorf("ModuleSkips = %d", qr.Snapshot().ModuleSkips)
	}
}

// Options from other modules that are predicated on a quarantined module's
// assertions are dropped too.
func TestFilterDropsQuarantinedModuleAsserts(t *testing.T) {
	a := core.Assertion{Module: "chaos", Kind: "lie", Cost: 1}
	relay := &fakeModule{name: "relay", alias: func(q *core.AliasQuery, h core.Handle) core.AliasResponse {
		return core.AliasSpec(core.NoAlias, "relay", a)
	}}
	qr := New()
	qr.AddModule("chaos", "panicked")
	wrapped := Wrap([]core.Module{relay}, qr)[0]
	if got := wrapped.Alias(aqN(1), core.NoHelp{}); got.Result != core.MayAlias {
		t.Errorf("result = %s, want MayAlias (option predicated on quarantined module)", got.Result)
	}
}

// Chaos decisions must be pure functions of (seed, query): two instances
// with the same seed agree on every query, a different seed disagrees
// somewhere, and repeated evaluation is stable.
func TestChaosDeterminism(t *testing.T) {
	mk := func(seed uint64) *Chaos { return &Chaos{Seed: seed, WrongEvery: 3} }
	c1, c2, c3 := mk(7), mk(7), mk(8)
	same, diff := true, false
	for i := int64(0); i < 200; i++ {
		q := aqN(i)
		r1 := c1.Alias(q, core.NoHelp{})
		r2 := c2.Alias(q, core.NoHelp{})
		if !reflect.DeepEqual(r1, r2) {
			same = false
		}
		if !reflect.DeepEqual(r1, c1.Alias(q, core.NoHelp{})) {
			t.Fatalf("query %d: unstable across repeated evaluation", i)
		}
		if !reflect.DeepEqual(r1, c3.Alias(q, core.NoHelp{})) {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different answers")
	}
	if !diff {
		t.Error("different seeds never diverged (injection likely inert)")
	}
	if c1.Wrongs.Load() == 0 {
		t.Error("no wrong answers injected at WrongEvery=3")
	}
}

func TestChaosPanicsDeterministically(t *testing.T) {
	c := &Chaos{Seed: 1, PanicEvery: 2}
	panicked := map[int64]bool{}
	for i := int64(0); i < 50; i++ {
		func() {
			defer func() {
				if recover() != nil {
					panicked[i] = true
				}
			}()
			c.Alias(aqN(i), core.NoHelp{})
		}()
	}
	if len(panicked) == 0 || len(panicked) == 50 {
		t.Fatalf("panicked on %d/50 queries; want a deterministic subset", len(panicked))
	}
	c2 := &Chaos{Seed: 1, PanicEvery: 2}
	for i := int64(0); i < 50; i++ {
		got := func() (p bool) {
			defer func() { p = recover() != nil }()
			c2.Alias(aqN(i), core.NoHelp{})
			return
		}()
		if got != panicked[i] {
			t.Fatalf("query %d: panic decision not reproducible", i)
		}
	}
}

// End to end at the orchestrator level: quarantining a speculation
// module's assertion makes a wrapped run answer exactly like a run whose
// module never offered it.
func TestWrappedOrchestratorMatchesExclusion(t *testing.T) {
	q1 := aqN(1)
	a := core.Assertion{Module: "spec", Kind: "k", Cost: 5}
	mkSpec := func(offer bool) *fakeModule {
		return &fakeModule{name: "spec", alias: func(qq *core.AliasQuery, h core.Handle) core.AliasResponse {
			if offer {
				return core.AliasSpec(core.NoAlias, "spec", a)
			}
			return core.MayAliasResponse()
		}}
	}
	qr := New()
	qr.AddAssert(a.String(), "violated")
	degraded := core.NewOrchestrator(core.Config{
		Modules:     []core.Module{mkSpec(true)},
		WrapModules: Wrapper(qr),
	})
	reference := core.NewOrchestrator(core.Config{Modules: []core.Module{mkSpec(false)}})
	got, want := degraded.Alias(q1), reference.Alias(q1)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("degraded = %+v, reference = %+v", got, want)
	}
}

// Under -race: concurrent orchestrator traffic through wrapped modules
// while a goroutine quarantines. Invariant: an assertion quarantined
// before a query starts never appears in that query's answer.
func TestFilterQuarantineRace(t *testing.T) {
	const nAsserts = 32
	asserts := make([]core.Assertion, nAsserts)
	keys := make([]string, nAsserts)
	for i := range asserts {
		asserts[i] = core.Assertion{Module: "spec", Kind: fmt.Sprintf("r%d", i), Cost: 1}
		keys[i] = asserts[i].String()
	}
	qr := New()
	sc := core.NewSharedCache()
	sc.SetRevoker(qr)

	mint := func() *core.Orchestrator {
		m := &fakeModule{name: "spec", alias: func(qq *core.AliasQuery, h core.Handle) core.AliasResponse {
			i := qq.L1.Size % nAsserts // size encodes the assertion index
			return core.AliasSpec(core.NoAlias, "spec", asserts[i])
		}}
		return core.NewOrchestrator(core.Config{
			Modules:     []core.Module{m},
			Shared:      sc,
			WrapModules: Wrapper(qr),
		})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := mint()
			for it := 0; ; it++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (it*5 + w) % nAsserts
				revokedBefore := qr.RevokedAssert(keys[i])
				q := aqN(int64(i))
				q.L1.Size = int64(i)
				r := o.Alias(q)
				if !revokedBefore {
					continue
				}
				for _, opt := range r.Options {
					for _, got := range opt.Asserts {
						if got.String() == keys[i] {
							t.Errorf("answer predicated on assertion quarantined before the query started")
							return
						}
					}
				}
			}
		}(w)
	}
	for i := 0; i < nAsserts; i++ {
		qr.AddAssert(keys[i], "violated")
		sc.InvalidateAsserts([]string{keys[i]})
	}
	close(stop)
	wg.Wait()
}
