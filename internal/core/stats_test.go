package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"scaf/internal/ir"
)

func TestStatsMergeCounters(t *testing.T) {
	a := &Stats{Counters: Counters{TopQueries: 3, PremiseQueries: 5, Conflicts: 1, ModuleEvals: 10,
		CacheHits: 2, SharedHits: 4, Timeouts: 1, CycleBreaks: 2, DepthLimits: 1},
		LatencyDropped: 7,
		Latencies:      []time.Duration{time.Millisecond}}
	b := &Stats{Counters: Counters{TopQueries: 4, PremiseQueries: 1, Conflicts: 2, ModuleEvals: 20,
		CacheHits: 3, SharedHits: 1, Timeouts: 2, CycleBreaks: 3, DepthLimits: 4},
		LatencyDropped: 1,
		Latencies:      []time.Duration{2 * time.Millisecond, 3 * time.Millisecond}}
	m := &Stats{}
	m.Merge(a)
	m.Merge(b)
	m.Merge(nil) // must be a no-op

	if m.TopQueries != 7 || m.PremiseQueries != 6 || m.Conflicts != 3 ||
		m.ModuleEvals != 30 || m.CacheHits != 5 || m.SharedHits != 5 ||
		m.Timeouts != 3 || m.CycleBreaks != 5 || m.DepthLimits != 5 ||
		m.LatencyDropped != 8 {
		t.Errorf("merged counters wrong: %+v", m)
	}
	if len(m.Latencies) != 3 {
		t.Errorf("latencies = %d, want 3", len(m.Latencies))
	}
	// Merge must not mutate its argument.
	if len(a.Latencies) != 1 || len(b.Latencies) != 2 {
		t.Error("Merge mutated its source stats")
	}
}

func TestStatsMergeIsOrderIndependentForCounters(t *testing.T) {
	parts := []*Stats{
		{Counters: Counters{TopQueries: 1, ModuleEvals: 5}},
		{Counters: Counters{TopQueries: 2, ModuleEvals: 7, Conflicts: 1}},
		{Counters: Counters{TopQueries: 4, PremiseQueries: 9}},
	}
	fwd, rev := &Stats{}, &Stats{}
	for _, p := range parts {
		fwd.Merge(p)
	}
	for i := len(parts) - 1; i >= 0; i-- {
		rev.Merge(parts[i])
	}
	if !reflect.DeepEqual(copyNoLat(fwd), copyNoLat(rev)) {
		t.Errorf("counter aggregation depends on merge order: %+v vs %+v", fwd, rev)
	}
}

func copyNoLat(s *Stats) *Stats {
	c := *s
	c.Latencies = nil
	return &c
}

func TestRecordLatencyCap(t *testing.T) {
	s := &Stats{}
	for i := 0; i < MaxLatencySamples+10; i++ {
		s.recordLatency(time.Duration(i), int64(i))
	}
	if len(s.Latencies) != MaxLatencySamples {
		t.Errorf("latencies = %d, want cap %d", len(s.Latencies), MaxLatencySamples)
	}
	if s.LatencyDropped != 10 {
		t.Errorf("dropped = %d, want 10", s.LatencyDropped)
	}
	// Merging an over-full source respects the cap and counts the overflow.
	m := &Stats{Latencies: make([]time.Duration, MaxLatencySamples-5)}
	m.Merge(s)
	if len(m.Latencies) != MaxLatencySamples {
		t.Errorf("merged latencies = %d, want cap", len(m.Latencies))
	}
	wantDropped := int64(10 + (MaxLatencySamples - 5))
	if m.LatencyDropped != wantDropped {
		t.Errorf("merged dropped = %d, want %d", m.LatencyDropped, wantDropped)
	}
}

// TestRecordLatencyWithTimeout exercises RecordLatency and Timeout on the
// same orchestrator: timed-out searches must still record their latency,
// count a timeout, and never publish to caches.
func TestRecordLatencyWithTimeout(t *testing.T) {
	slow := &fakeModule{name: "slow", modref: func(q *ModRefQuery, h Handle) ModRefResponse {
		time.Sleep(2 * time.Millisecond)
		return ModRefConservative()
	}}
	never := &fakeModule{name: "never"}
	sc := NewSharedCache()
	o := NewOrchestrator(Config{
		Modules:       []Module{slow, never},
		Timeout:       time.Microsecond,
		RecordLatency: true,
		Shared:        sc,
	})
	o.BeginBatch()
	defer o.EndBatch()
	const n = 3
	for i := 0; i < n; i++ {
		o.ModRef(&ModRefQuery{})
	}
	st := o.Stats()
	if st.TopQueries != n {
		t.Errorf("top queries = %d", st.TopQueries)
	}
	if len(st.Latencies) != n {
		t.Errorf("latencies = %d, want %d (timeouts must still be recorded)", len(st.Latencies), n)
	}
	if st.Timeouts == 0 {
		t.Error("timeout policy never fired")
	}
	// The first module runs before the deadline check, the second never
	// does: every repeat re-evaluates because incomplete searches must not
	// be cached, locally or shared.
	if st.CacheHits != 0 || st.SharedHits != 0 {
		t.Errorf("timed-out search was served from a cache: %+v", st)
	}
	if a, m := sc.Len(); a != 0 || m != 0 {
		t.Errorf("timed-out search was published to the shared cache: %d/%d", a, m)
	}
	if never.queried != 0 {
		t.Errorf("second module consulted %d times despite timeout", never.queried)
	}
}

func TestSharedCacheServesTopLevelQueries(t *testing.T) {
	calls := 0
	m := &fakeModule{name: "m", modref: func(q *ModRefQuery, h Handle) ModRefResponse {
		calls++
		return ModRefFact(NoModRef, "m")
	}}
	sc := NewSharedCache()
	mk := func() *Orchestrator {
		return NewOrchestrator(Config{Modules: []Module{m}, Shared: sc})
	}
	o1, o2 := mk(), mk()
	q := &ModRefQuery{Rel: Before}
	r1 := o1.ModRef(q)
	r2 := o2.ModRef(q) // distinct orchestrator, same cache
	if calls != 1 {
		t.Errorf("module consulted %d times, want 1", calls)
	}
	if r1.Result != r2.Result || r2.Result != NoModRef {
		t.Errorf("results differ: %s vs %s", r1.Result, r2.Result)
	}
	if o2.Stats().SharedHits != 1 {
		t.Errorf("shared hits = %d", o2.Stats().SharedHits)
	}
	if _, mr := sc.Len(); mr != 1 {
		t.Errorf("published entries = %d", mr)
	}
}

// TestSharedCacheAliasDesiredGuard: only the canonical AnyAlias form of an
// alias proposition participates in the shared cache, so a desired-result
// query can never be served an answer computed under a different module
// audience.
func TestSharedCacheAliasDesiredGuard(t *testing.T) {
	calls := 0
	m := &fakeModule{name: "m", alias: func(q *AliasQuery, h Handle) AliasResponse {
		calls++
		return AliasFact(NoAlias, "m")
	}}
	sc := NewSharedCache()
	// One fixed proposition: aliasKey compares pointer operands by
	// identity, so the test must reuse the same ir values.
	p1, p2 := ir.CI(1), ir.CI(2)
	mkq := func(d DesiredAlias) *AliasQuery {
		return &AliasQuery{L1: MemLoc{Ptr: p1, Size: 8}, L2: MemLoc{Ptr: p2, Size: 8}, Desired: d}
	}
	o := NewOrchestrator(Config{Modules: []Module{m}, Shared: sc})
	o.Alias(mkq(WantNoAlias))
	if a, _ := sc.Len(); a != 0 {
		t.Errorf("desired-result query was published: %d entries", a)
	}
	o.Alias(mkq(AnyAlias)) // canonical form: published
	if a, _ := sc.Len(); a != 1 {
		t.Errorf("canonical query not published: %d entries", a)
	}
	o2 := NewOrchestrator(Config{Modules: []Module{m}, Shared: sc})
	o2.Alias(mkq(AnyAlias))
	if o2.Stats().SharedHits != 1 {
		t.Errorf("canonical re-ask missed the shared cache")
	}
	o2.Alias(mkq(WantMustAlias))
	if o2.Stats().SharedHits != 1 {
		t.Errorf("desired-result re-ask must bypass the shared cache")
	}
	// StripDesired normalizes before the cache check, so under the ablation
	// the desired form becomes canonical again.
	o3 := NewOrchestrator(Config{Modules: []Module{m}, Shared: sc, StripDesired: true})
	o3.Alias(mkq(WantNoAlias))
	if o3.Stats().SharedHits != 1 {
		t.Errorf("stripped query should hit the canonical entry")
	}
}

// TestSharedCachePremiseGuard: premise (depth > 0) resolutions are never
// published — they may embed conservative cycle-breaks that depend on the
// enclosing in-flight propositions.
func TestSharedCachePremiseGuard(t *testing.T) {
	inner := &fakeModule{name: "inner", alias: func(q *AliasQuery, h Handle) AliasResponse {
		return AliasFact(NoAlias, "inner")
	}}
	outer := &fakeModule{name: "outer"}
	outer.modref = func(q *ModRefQuery, h Handle) ModRefResponse {
		h.PremiseAlias(aq())
		return ModRefConservative()
	}
	sc := NewSharedCache()
	o := NewOrchestrator(Config{Modules: []Module{outer, inner}, Shared: sc})
	o.ModRef(&ModRefQuery{})
	if a, _ := sc.Len(); a != 0 {
		t.Errorf("premise resolution was published: %d alias entries", a)
	}
	if _, m := sc.Len(); m != 1 {
		t.Error("top-level mod-ref resolution was not published")
	}
}

// TestSharedCacheConcurrent hammers one cache from many goroutines under
// the race detector: same proposition set, concurrent publish and lookup.
func TestSharedCacheConcurrent(t *testing.T) {
	sc := NewSharedCache()
	prog := []*ModRefQuery{}
	for i := 0; i < 32; i++ {
		prog = append(prog, &ModRefQuery{Rel: TemporalRelation(i % 2), Loc: MemLoc{Ptr: ir.CI(int64(i / 2)), Size: 8}})
	}
	var wg sync.WaitGroup
	results := make([][]ModRefResult, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := &fakeModule{name: "m", modref: func(q *ModRefQuery, h Handle) ModRefResponse {
				if q.Rel == Before {
					return ModRefFact(NoModRef, "m")
				}
				return ModRefFact(Ref, "m")
			}}
			o := NewOrchestrator(Config{Modules: []Module{m}, Shared: sc})
			for _, q := range prog {
				results[w] = append(results[w], o.ModRef(q).Result)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < 8; w++ {
		for i := range prog {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d query %d: %s != %s", w, i, results[w][i], results[0][i])
			}
		}
	}
	if _, m := sc.Len(); m != len(prog) {
		t.Errorf("published = %d, want %d", m, len(prog))
	}
}
