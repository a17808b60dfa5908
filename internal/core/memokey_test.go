package core

import (
	"testing"

	"scaf/internal/ir"
)

// The memo tables key on the full resolution context (proposition + call
// context + desired result + premise audience), not the proposition alone.
// These tests pin the two leaks the bare proposition key allowed: a
// resolution confined to one technique group (RouteIsolated) serving a
// full-ensemble query, and a resolution degraded by a desired-result skip
// serving a desired-free query. Both fail on the pre-fix key.

// memoKeyQueries returns a trigger query and the proposition P asked both
// as a premise and as a top-level query. Both asks of P must share the
// same ir.Value pointers — proposition keys compare values by identity.
func memoKeyQueries() (trigger func() *AliasQuery, propP func() *AliasQuery) {
	t1, t2 := ir.CI(1), ir.CI(2)
	p1, p2 := ir.CI(3), ir.CI(4)
	trigger = func() *AliasQuery {
		return &AliasQuery{L1: MemLoc{Ptr: t1, Size: 8}, L2: MemLoc{Ptr: t2, Size: 8}}
	}
	propP = func() *AliasQuery {
		return &AliasQuery{L1: MemLoc{Ptr: p1, Size: 99}, L2: MemLoc{Ptr: p2, Size: 8}}
	}
	return trigger, propP
}

func TestCacheKeyIncludesAudience(t *testing.T) {
	// asker (group g1) resolves premise P against its own group only —
	// nobody there can answer, so the premise resolves MayAlias. The
	// full-ensemble top-level ask of the same proposition P must still
	// reach answerer (group g2) and get NoAlias, memo or no memo.
	trigger, propP := memoKeyQueries()
	asker := &fakeModule{name: "asker"}
	asker.alias = func(q *AliasQuery, h Handle) AliasResponse {
		if q.L1.Size != 99 {
			h.PremiseAlias(propP())
		}
		return MayAliasResponse()
	}
	answerer := &fakeModule{name: "answerer", alias: func(q *AliasQuery, h Handle) AliasResponse {
		if q.L1.Size == 99 {
			return AliasFact(NoAlias, "answerer")
		}
		return MayAliasResponse()
	}}
	o := NewOrchestrator(Config{
		Modules: []Module{asker, answerer},
		Groups:  map[string]string{"asker": "g1", "answerer": "g2"},
		Routing: RouteIsolated,
	})
	o.BeginBatch()
	defer o.EndBatch()
	o.Alias(trigger()) // memoizes P under asker's group audience
	if r := o.Alias(propP()); r.Result != NoAlias {
		t.Fatalf("top-level P = %s, want NoAlias: the group-confined premise resolution leaked into the full-ensemble ask", r.Result)
	}
}

// cappedModule answers NoAlias, except to a premise seeking MustAlias,
// which it answers MayAlias: the desired result changes its answer.
type cappedModule struct{ fakeModule }

func (c *cappedModule) Alias(q *AliasQuery, h Handle) AliasResponse {
	if q.Desired == WantMustAlias {
		return MayAliasResponse()
	}
	return c.fakeModule.Alias(q, h)
}

func TestCacheKeyIncludesDesired(t *testing.T) {
	trigger, propP := memoKeyQueries()
	capped := &cappedModule{}
	capped.name = "capped"
	capped.alias = func(q *AliasQuery, h Handle) AliasResponse {
		if q.L1.Size == 99 {
			return AliasFact(NoAlias, "capped")
		}
		return MayAliasResponse()
	}
	asker := &fakeModule{name: "asker"}
	asker.alias = func(q *AliasQuery, h Handle) AliasResponse {
		if q.L1.Size != 99 {
			p := propP()
			p.Desired = WantMustAlias // capped answers MayAlias; premise degrades
			h.PremiseAlias(p)
		}
		return MayAliasResponse()
	}
	o := NewOrchestrator(Config{Modules: []Module{asker, capped}})
	o.BeginBatch()
	defer o.EndBatch()
	o.Alias(trigger()) // memoizes P under Desired == WantMustAlias
	if r := o.Alias(propP()); r.Result != NoAlias {
		t.Fatalf("top-level P = %s, want NoAlias: the desired-result-degraded premise resolution leaked into the desired-free ask", r.Result)
	}
}
