package core

import (
	"testing"
	"time"

	"scaf/internal/ir"
)

// TestTimeoutCountedOncePerQuery is the regression test for the Timeouts
// over-count: once the budget expires, every consult loop at every premise
// depth re-checks the deadline, and each check used to increment the
// counter. One timed-out top-level query must count exactly once.
func TestTimeoutCountedOncePerQuery(t *testing.T) {
	// slow burns the whole budget, then issues several premise queries;
	// each premise opens a consult loop whose deadline check fires.
	slow := &fakeModule{name: "slow"}
	slow.modref = func(q *ModRefQuery, h Handle) ModRefResponse {
		if q.Rel != Same {
			return ModRefConservative() // premise: answer without recursing
		}
		time.Sleep(3 * time.Millisecond)
		for i := 0; i < 4; i++ {
			h.PremiseModRef(&ModRefQuery{Rel: Before, Loc: MemLoc{Ptr: ir.CI(int64(i)), Size: 8}})
		}
		return ModRefConservative()
	}
	tail := &fakeModule{name: "tail"}
	o := NewOrchestrator(Config{
		Modules: []Module{slow, tail},
		Timeout: time.Millisecond,
	})
	o.ModRef(&ModRefQuery{})
	st := o.Stats()
	if st.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want exactly 1 for one timed-out query", st.Timeouts)
	}
	if st.Timeouts > st.TopQueries {
		t.Errorf("Timeouts (%d) exceeds TopQueries (%d)", st.Timeouts, st.TopQueries)
	}
	// A second, identical query counts its own (single) timeout.
	o.ModRef(&ModRefQuery{Rel: Same, Loc: MemLoc{Ptr: ir.CI(99), Size: 8}})
	if st.Timeouts != 2 || st.Timeouts > st.TopQueries {
		t.Errorf("after second query: Timeouts = %d, TopQueries = %d", st.Timeouts, st.TopQueries)
	}
}

// TestTimeoutReturnsBestSoFar exercises the Config.Timeout bail-out path
// directly: the best answer found before the budget expired must be
// returned, and the cut-short search must count exactly one timeout.
func TestTimeoutReturnsBestSoFar(t *testing.T) {
	partial := &fakeModule{name: "partial", alias: func(q *AliasQuery, h Handle) AliasResponse {
		return AliasFact(PartialAlias, "partial")
	}}
	slow := &fakeModule{name: "slow", alias: func(q *AliasQuery, h Handle) AliasResponse {
		time.Sleep(3 * time.Millisecond)
		return MayAliasResponse()
	}}
	definite := &fakeModule{name: "definite", alias: func(q *AliasQuery, h Handle) AliasResponse {
		return AliasFact(NoAlias, "definite")
	}}
	o := NewOrchestrator(Config{
		Modules: []Module{partial, slow, definite},
		Bailout: BailExhaustive, // only the deadline can stop the search
		Timeout: time.Millisecond,
	})
	r := o.Alias(aq())
	if r.Result != PartialAlias {
		t.Errorf("result = %s, want the best-so-far PartialAlias", r.Result)
	}
	if definite.queried != 0 {
		t.Error("search continued past the expired budget")
	}
	st := o.Stats()
	if st.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", st.Timeouts)
	}
	// Without the timeout the same ensemble reaches the definite answer.
	o2 := NewOrchestrator(Config{Modules: []Module{partial, slow, definite}, Bailout: BailExhaustive})
	if r2 := o2.Alias(aq()); r2.Result != NoAlias {
		t.Errorf("untimed result = %s, want NoAlias", r2.Result)
	}
}

// cycleFixture builds the cycle-taint scenario: resolving q0 first forces
// q1 to resolve inside q0's flight, where q1's premise on q0 breaks as a
// conservative cycle — a degraded answer that must not be memoized,
// because a fresh resolution of q1 is strictly more precise.
//
//	asker:  alias(q0) → premise(q1); NoAlias iff the premise is NoAlias
//	cyclic: alias(q1) → premise(q0); NoAlias iff the premise is NoAlias
//	base:   alias(q0) → NoAlias fact
//
// Fresh q1: cyclic's premise q0 resolves completely (its own nested
// premise q1 cycle-breaks, but base still proves NoAlias) → q1 = NoAlias.
// q1 nested under q0: the premise on q0 is a cycle break → q1 = MayAlias.
func cycleFixture() (o *Orchestrator, q0, q1 *AliasQuery) {
	p1, p2 := ir.CI(1), ir.CI(2)
	mkq := func(size int64) *AliasQuery {
		return &AliasQuery{L1: MemLoc{Ptr: p1, Size: size}, L2: MemLoc{Ptr: p2, Size: size}}
	}
	q0, q1 = mkq(8), mkq(16)
	asker := &fakeModule{name: "asker"}
	asker.alias = func(q *AliasQuery, h Handle) AliasResponse {
		if q.L1.Size != q0.L1.Size {
			return MayAliasResponse()
		}
		if h.PremiseAlias(q1).Result == NoAlias {
			return AliasFact(NoAlias, "asker")
		}
		return MayAliasResponse()
	}
	cyclic := &fakeModule{name: "cyclic"}
	cyclic.alias = func(q *AliasQuery, h Handle) AliasResponse {
		if q.L1.Size != q1.L1.Size {
			return MayAliasResponse()
		}
		if h.PremiseAlias(q0).Result == NoAlias {
			return AliasFact(NoAlias, "cyclic")
		}
		return MayAliasResponse()
	}
	base := &fakeModule{name: "base"}
	base.alias = func(q *AliasQuery, h Handle) AliasResponse {
		if q.L1.Size == q0.L1.Size {
			return AliasFact(NoAlias, "base")
		}
		return MayAliasResponse()
	}
	o = NewOrchestrator(Config{Modules: []Module{asker, cyclic, base}})
	o.BeginBatch()
	return o, q0, q1
}

// TestCycleTaintedResolutionNotCached is the regression test for
// cycle-tainted memoization: a proposition first resolved inside a premise
// cycle must not publish its conservatively degraded answer, so a later
// top-level ask of the same proposition is as precise as a fresh one.
func TestCycleTaintedResolutionNotCached(t *testing.T) {
	o, q0, q1 := cycleFixture()
	// Reference: a fresh orchestrator resolves q1 to NoAlias.
	fresh, _, fq1 := cycleFixture()
	if r := fresh.Alias(fq1); r.Result != NoAlias {
		t.Fatalf("fixture broken: fresh q1 = %s, want NoAlias", r.Result)
	}
	// Resolving q0 first forces q1 through the cycle-degraded path.
	if r := o.Alias(q0); r.Result != NoAlias {
		t.Fatalf("q0 = %s, want NoAlias", r.Result)
	}
	if o.Stats().CycleBreaks == 0 {
		t.Fatal("fixture broken: no premise cycle occurred")
	}
	// The poisoned-cache bug: the degraded q1 = MayAlias was memoized
	// during q0's resolution and served here.
	if r := o.Alias(q1); r.Result != NoAlias {
		t.Errorf("cached q1 = %s, want NoAlias (cycle-tainted entry was published)", r.Result)
	}
}

// TestCacheStillServesCompleteEntries guards the other direction: the
// taint must not suppress memoization of clean resolutions, including ones
// whose only cycle is internal to their own subtree (deterministic on a
// fresh resolution, hence safe to cache).
func TestCacheStillServesCompleteEntries(t *testing.T) {
	calls := 0
	inner := &fakeModule{name: "inner", alias: func(q *AliasQuery, h Handle) AliasResponse {
		calls++
		return AliasFact(NoAlias, "inner")
	}}
	loopy := &fakeModule{name: "loopy"}
	loopy.alias = func(q *AliasQuery, h Handle) AliasResponse {
		same := *q
		return h.PremiseAlias(&same) // self-cycle, internal to this resolution
	}
	o := NewOrchestrator(Config{Modules: []Module{loopy, inner}})
	o.BeginBatch()
	defer o.EndBatch()
	q := aq()
	if r := o.Alias(q); r.Result != NoAlias {
		t.Fatalf("first ask = %s", r.Result)
	}
	if r := o.Alias(q); r.Result != NoAlias {
		t.Fatalf("second ask = %s", r.Result)
	}
	if o.Stats().CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1: internal-cycle resolutions are pure and cacheable",
			o.Stats().CacheHits)
	}
	if calls != 1 {
		t.Errorf("inner consulted %d times, want 1", calls)
	}
}

// TestDepthLimitTaintNotCached: a proposition first resolved as a deep
// premise can be truncated by MaxDepth where a fresh (depth-0) resolution
// would not be; the truncated answer must not be memoized.
func TestDepthLimitTaintNotCached(t *testing.T) {
	p1, p2 := ir.CI(1), ir.CI(2)
	mkq := func(size int64) *AliasQuery {
		return &AliasQuery{L1: MemLoc{Ptr: p1, Size: size}, L2: MemLoc{Ptr: p2, Size: size}}
	}
	// chain resolves size-n propositions by asking size-(n+1) premises;
	// size 5 is proven NoAlias directly.
	chain := &fakeModule{name: "chain"}
	chain.alias = func(q *AliasQuery, h Handle) AliasResponse {
		if q.L1.Size == 5 {
			return AliasFact(NoAlias, "chain")
		}
		if h.PremiseAlias(mkq(q.L1.Size+1)).Result == NoAlias {
			return AliasFact(NoAlias, "chain")
		}
		return MayAliasResponse()
	}
	o := NewOrchestrator(Config{Modules: []Module{chain}, MaxDepth: 3})
	o.BeginBatch()
	defer o.EndBatch()
	// Top-level size 1: needs 4 premise levels (2→5) but only 3 are
	// allowed, so the size-2 resolution is truncated and degraded.
	if r := o.Alias(mkq(1)); r.Result != MayAlias {
		t.Fatalf("size-1 = %s, want MayAlias (depth-limited)", r.Result)
	}
	if o.Stats().DepthLimits == 0 {
		t.Fatal("fixture broken: depth limit never hit")
	}
	// Fresh top-level size 2 needs only 3 premise levels (3→5): NoAlias.
	// The bug would serve the truncated MayAlias cached during the first
	// resolution.
	if r := o.Alias(mkq(2)); r.Result != NoAlias {
		t.Errorf("size-2 = %s, want NoAlias (depth-tainted entry was published)", r.Result)
	}
}
