package core

import (
	"testing"
	"time"
)

func TestCacheHitsAndStability(t *testing.T) {
	calls := 0
	m := &fakeModule{name: "m", alias: func(q *AliasQuery, h Handle) AliasResponse {
		calls++
		return AliasFact(NoAlias, "m")
	}}
	o := NewOrchestrator(Config{Modules: []Module{m}})
	o.BeginBatch()
	defer o.EndBatch()
	q := aq()
	r1 := o.Alias(q)
	r2 := o.Alias(q)
	if calls != 1 {
		t.Errorf("module consulted %d times, want 1", calls)
	}
	if o.Stats().CacheHits != 1 {
		t.Errorf("cache hits = %d", o.Stats().CacheHits)
	}
	if r1.Result != r2.Result || r1.Result != NoAlias {
		t.Errorf("cached result differs: %s vs %s", r1.Result, r2.Result)
	}
	// A different proposition misses.
	q2 := aq()
	q2.L1.Size = 16
	o.Alias(q2)
	if calls != 2 {
		t.Errorf("distinct query should miss the cache")
	}
	// Without the flag, no memoization.
	calls = 0
	o2 := NewOrchestrator(Config{Modules: []Module{m}})
	o2.Alias(q)
	o2.Alias(q)
	if calls != 2 {
		t.Errorf("uncached orchestrator consulted %d times, want 2", calls)
	}
}

func TestCacheDoesNotStoreCycleBreaks(t *testing.T) {
	// loopy asks its own query as a premise: the inner resolution is a
	// cycle break and must not poison the cache for a later standalone ask.
	hits := 0
	inner := &fakeModule{name: "inner", alias: func(q *AliasQuery, h Handle) AliasResponse {
		hits++
		return AliasFact(NoAlias, "inner")
	}}
	loopy := &fakeModule{name: "loopy"}
	loopy.alias = func(q *AliasQuery, h Handle) AliasResponse {
		if q.L1.Size == 99 {
			same := *q
			return h.PremiseAlias(&same) // self-cycle
		}
		return MayAliasResponse()
	}
	o := NewOrchestrator(Config{Modules: []Module{loopy, inner}})
	o.BeginBatch()
	defer o.EndBatch()
	q := aq()
	q.L1.Size = 99
	r := o.Alias(q)
	// inner answers NoAlias on the outer evaluation.
	if r.Result != NoAlias {
		t.Fatalf("outer result %s", r.Result)
	}
	// Asking again uses the cached *complete* answer, not a cycle break.
	r2 := o.Alias(q)
	if r2.Result != NoAlias {
		t.Fatalf("cached result degraded to %s", r2.Result)
	}
}

func TestTimeoutPolicy(t *testing.T) {
	slow := &fakeModule{name: "slow", modref: func(q *ModRefQuery, h Handle) ModRefResponse {
		time.Sleep(3 * time.Millisecond)
		return ModRefConservative()
	}}
	definite := &fakeModule{name: "definite", modref: func(q *ModRefQuery, h Handle) ModRefResponse {
		return ModRefFact(NoModRef, "definite")
	}}
	// With a tiny timeout the second module is never reached.
	o := NewOrchestrator(Config{
		Modules: []Module{slow, definite},
		Timeout: time.Millisecond,
	})
	r := o.ModRef(&ModRefQuery{})
	if r.Result == NoModRef {
		t.Error("timeout should have stopped before the definite module")
	}
	if o.Stats().Timeouts == 0 {
		t.Error("timeout not counted")
	}
	// Without a timeout the definite answer arrives.
	o2 := NewOrchestrator(Config{Modules: []Module{slow, definite}})
	if r := o2.ModRef(&ModRefQuery{}); r.Result != NoModRef {
		t.Errorf("untimed result %s", r.Result)
	}
}

func TestTimeoutNeverCachesPartialResults(t *testing.T) {
	first := true
	slow := &fakeModule{name: "slow", modref: func(q *ModRefQuery, h Handle) ModRefResponse {
		if first {
			first = false
			time.Sleep(3 * time.Millisecond)
		}
		return ModRefConservative()
	}}
	definite := &fakeModule{name: "definite", modref: func(q *ModRefQuery, h Handle) ModRefResponse {
		return ModRefFact(NoModRef, "definite")
	}}
	o := NewOrchestrator(Config{
		Modules: []Module{slow, definite},
		Timeout: time.Millisecond,
	})
	o.BeginBatch()
	defer o.EndBatch()
	q := &ModRefQuery{}
	if r := o.ModRef(q); r.Result == NoModRef {
		t.Fatal("first ask should time out")
	}
	// Second ask is fast and must reach the definite module (the timed-out
	// partial answer must not have been cached).
	if r := o.ModRef(q); r.Result != NoModRef {
		t.Errorf("partial result was cached: %s", r.Result)
	}
}
