package core

import "testing"

// TestBatchMemoizesWithinNotAcross pins the batch-memo lifetime: inside one
// batch a repeated proposition is a memo hit; across BeginBatch/EndBatch
// boundaries nothing carries over, so each batch is a pure function of its
// own query set.
func TestBatchMemoizesWithinNotAcross(t *testing.T) {
	calls := 0
	m := &fakeModule{name: "m", alias: func(q *AliasQuery, h Handle) AliasResponse {
		calls++
		return AliasFact(NoAlias, "m")
	}}
	o := NewOrchestrator(Config{Modules: []Module{m}})
	q := aq()

	o.BeginBatch()
	o.Alias(q)
	o.Alias(q)
	o.EndBatch()
	if calls != 1 {
		t.Errorf("in-batch repeat consulted module %d times, want 1", calls)
	}
	if o.Stats().CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", o.Stats().CacheHits)
	}

	// Outside any batch: no memoization at all.
	o.Alias(q)
	o.Alias(q)
	if calls != 3 {
		t.Errorf("unbatched queries consulted module %d times total, want 3", calls)
	}

	// A second batch starts cold.
	o.BeginBatch()
	o.Alias(q)
	o.EndBatch()
	if calls != 4 {
		t.Errorf("new batch should not see the previous batch's memo (calls=%d, want 4)", calls)
	}
}

// TestBatchTablesReset proves the pooled tables' cleared-on-return
// invariant: EndBatch clears the tables before handing them back, so no
// proposition resolved in one batch can surface anywhere else.
func TestBatchTablesReset(t *testing.T) {
	m := &fakeModule{name: "m", alias: func(q *AliasQuery, h Handle) AliasResponse {
		return AliasFact(NoAlias, "m")
	}}
	o := NewOrchestrator(Config{Modules: []Module{m}})
	o.BeginBatch()
	o.Alias(aq())
	tab := o.batch
	if tab == nil || len(tab.a) == 0 {
		t.Fatal("batch resolution did not memoize into the batch tables")
	}
	o.EndBatch()
	if len(tab.a) != 0 || len(tab.m) != 0 {
		t.Fatalf("EndBatch returned dirty tables to the pool: %d alias, %d modref entries",
			len(tab.a), len(tab.m))
	}
	if o.cacheA != nil || o.cacheM != nil || o.batch != nil {
		t.Fatal("orchestrator still armed after EndBatch")
	}
}

// TestBatchNesting: nested Begin/End pairs flatten — only the outermost
// pair arms and disarms, so ResolveLoop composes with an enclosing batch.
func TestBatchNesting(t *testing.T) {
	calls := 0
	m := &fakeModule{name: "m", alias: func(q *AliasQuery, h Handle) AliasResponse {
		calls++
		return AliasFact(NoAlias, "m")
	}}
	o := NewOrchestrator(Config{Modules: []Module{m}})
	q := aq()
	o.BeginBatch()
	o.BeginBatch()
	o.Alias(q)
	o.EndBatch() // inner: must NOT disarm
	o.Alias(q)
	if calls != 1 {
		t.Errorf("inner EndBatch disarmed the enclosing batch (calls=%d, want 1)", calls)
	}
	o.EndBatch()
	if o.batch != nil {
		t.Fatal("outer EndBatch left the batch armed")
	}
	// Stray EndBatch is a no-op.
	o.EndBatch()
}
