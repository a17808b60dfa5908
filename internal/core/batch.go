package core

import "sync"

// Batch-scoped memoization: a client analyzing one loop issues hundreds of
// closely related top-level queries whose premise trees overlap heavily
// (the same kill-store coverage propositions, the same underlying-object
// separations). BeginBatch arms the orchestrator's memo tables for the
// duration of the batch so that premise work resolved for one pair is
// reused by the rest, and EndBatch disarms and clears them, keeping every
// batch's results a pure function of (query set, configuration) — nothing
// learned in one batch can leak into the next, so work partitioning across
// workers cannot influence answers.
//
// Batches are the orchestrator's only memo. They are sound because the
// program, profiles, and module set are immutable for the orchestrator's
// lifetime, and because the taint machinery never memoizes a degraded
// resolution: one degraded by an enclosing in-flight proposition
// (conservative premise-cycle breaks), by having less remaining depth
// than a fresh resolution would (depth-limit hits), by a timeout or by a
// panic. A memo hit is therefore bit-identical to a fresh resolution —
// the per-orchestrator analogue of SharedCache's canonical-entry rule
// (pdg.TestResolveLoopMatchesAnalyzeLoop checks it on two benchmarks
// under every scheme).
//
// The tables themselves are pooled process-wide: maps grown by one batch
// are cleared (not reallocated) and handed to the next batch anywhere in
// the process, so steady-state batch resolution allocates no tables at
// all. A table is owned by exactly one orchestrator between Get and Put,
// which keeps the pool race-clean; TestBatchTablesReset proves the
// cleared-on-return invariant.

// batchTab is one pooled pair of memo tables.
type batchTab struct {
	a map[aliasMemoKey]AliasResponse
	m map[modrefMemoKey]ModRefResponse
}

var batchTabs = sync.Pool{New: func() any {
	return &batchTab{
		a: map[aliasMemoKey]AliasResponse{},
		m: map[modrefMemoKey]ModRefResponse{},
	}
}}

// BeginBatch starts a batch: until the matching EndBatch, query results are
// memoized in pooled batch-scoped tables. Nested batches are flattened —
// only the outermost pair arms and disarms.
func (o *Orchestrator) BeginBatch() {
	o.batchDepth++
	if o.batchDepth > 1 {
		return
	}
	t := batchTabs.Get().(*batchTab)
	o.batch = t
	o.cacheA, o.cacheM = t.a, t.m
}

// EndBatch ends the innermost batch; the outermost one returns the cleared
// tables to the pool. Calling it without a matching BeginBatch is a no-op.
func (o *Orchestrator) EndBatch() {
	if o.batchDepth == 0 {
		return
	}
	o.batchDepth--
	if o.batchDepth > 0 {
		return
	}
	clear(o.batch.a)
	clear(o.batch.m)
	o.cacheA, o.cacheM = nil, nil
	batchTabs.Put(o.batch)
	o.batch = nil
}
