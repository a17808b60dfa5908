package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"scaf/internal/ir"
	"scaf/internal/predstore"
)

// stubRevoker is a monotonic Revoker for cache tests (internal/recovery's
// Quarantine cannot be imported here without a cycle).
type stubRevoker struct {
	mu sync.Mutex
	m  map[string]bool
}

func newStubRevoker() *stubRevoker { return &stubRevoker{m: map[string]bool{}} }

func (r *stubRevoker) Revoke(key string) {
	r.mu.Lock()
	r.m[key] = true
	r.mu.Unlock()
}

func (r *stubRevoker) RevokedAssert(key string) bool {
	r.mu.Lock()
	v := r.m[key]
	r.mu.Unlock()
	return v
}

func TestPanicIsolationDegradesOneModule(t *testing.T) {
	boom := &fakeModule{name: "boom", alias: func(q *AliasQuery, h Handle) AliasResponse {
		panic("kaboom")
	}}
	good := &fakeModule{name: "good", alias: func(q *AliasQuery, h Handle) AliasResponse {
		return AliasFact(NoAlias, "good")
	}}
	var gotMod string
	var gotVal any
	o := NewOrchestrator(Config{
		Modules:       []Module{boom, good},
		IsolatePanics: true,
		OnModulePanic: func(m string, v any) { gotMod, gotVal = m, v },
	})
	r := o.Alias(aq())
	if r.Result != NoAlias {
		t.Errorf("result = %s, want the surviving module's NoAlias", r.Result)
	}
	if o.Stats().ModulePanics != 1 {
		t.Errorf("ModulePanics = %d, want 1", o.Stats().ModulePanics)
	}
	if gotMod != "boom" || fmt.Sprint(gotVal) != "kaboom" {
		t.Errorf("OnModulePanic got (%q, %v)", gotMod, gotVal)
	}
}

func TestPanicPropagatesWithoutIsolation(t *testing.T) {
	boom := &fakeModule{name: "boom", alias: func(q *AliasQuery, h Handle) AliasResponse {
		panic("kaboom")
	}}
	o := NewOrchestrator(Config{Modules: []Module{boom}})
	defer func() {
		if recover() == nil {
			t.Error("panic must propagate when IsolatePanics is off")
		}
	}()
	o.Alias(aq())
}

// A panicked resolution is tainted: neither the per-orchestrator memo nor
// the SharedCache may publish it, so the degraded answer stays confined to
// the query that hit the panic.
func TestPanicTaintBlocksPublication(t *testing.T) {
	sc := NewSharedCache()
	boom := &fakeModule{name: "boom", alias: func(q *AliasQuery, h Handle) AliasResponse {
		panic("kaboom")
	}}
	o := NewOrchestrator(Config{
		Modules:       []Module{boom},
		IsolatePanics: true,
		Shared:        sc,
	})
	o.BeginBatch()
	defer o.EndBatch()
	o.Alias(aq())
	o.Alias(aq())
	if boom.queried != 2 {
		t.Errorf("queried = %d; a panicked resolution must not be memoized", boom.queried)
	}
	if a, m := sc.Len(); a != 0 || m != 0 {
		t.Errorf("shared cache has %d/%d entries; panicked resolutions must not publish", a, m)
	}
	if o.Stats().ModulePanics != 2 {
		t.Errorf("ModulePanics = %d, want 2", o.Stats().ModulePanics)
	}
}

// A panic inside a premise resolution taints every enclosing frame up to
// and including the root.
func TestPremisePanicTaintsRoot(t *testing.T) {
	sc := NewSharedCache()
	solver := &fakeModule{name: "solver", alias: func(q *AliasQuery, h Handle) AliasResponse {
		panic("premise kaboom")
	}}
	sub := &AliasQuery{L1: MemLoc{Ptr: ir.CI(11), Size: 8}, L2: MemLoc{Ptr: ir.CI(12), Size: 8}}
	asker := &fakeModule{name: "asker", modref: func(q *ModRefQuery, h Handle) ModRefResponse {
		h.PremiseAlias(sub)
		return ModRefFact(NoModRef, "asker")
	}}
	o := NewOrchestrator(Config{
		Modules:       []Module{asker, solver},
		IsolatePanics: true,
		Shared:        sc,
	})
	o.BeginBatch()
	defer o.EndBatch()
	r := o.ModRef(&ModRefQuery{})
	if r.Result != NoModRef {
		t.Errorf("result = %s", r.Result)
	}
	if a, m := sc.Len(); a != 0 || m != 0 {
		t.Errorf("shared cache has %d/%d entries after premise panic", a, m)
	}
	// asker is consulted twice per top-level query (its own ModRef plus the
	// premise alias audience); a memoized root would leave the count at 2.
	o.ModRef(&ModRefQuery{})
	if asker.queried != 4 {
		t.Errorf("asker queried %d times, want 4; panic-tainted root must not be memoized", asker.queried)
	}
}

func TestPanicEmitsTraceEvent(t *testing.T) {
	boom := &fakeModule{name: "boom", alias: func(q *AliasQuery, h Handle) AliasResponse {
		panic("kaboom")
	}}
	var events []TraceEvent
	tr := tracerFunc(func(e TraceEvent) { events = append(events, e) })
	o := NewOrchestrator(Config{Modules: []Module{boom}, IsolatePanics: true, Tracer: tr})
	o.Alias(aq())
	var found bool
	for _, e := range events {
		if e.Kind == TraceModulePanic {
			found = true
			if e.Module != "boom" || !strings.Contains(e.Prop, "kaboom") {
				t.Errorf("panic event = %+v", e)
			}
		}
	}
	if !found {
		t.Error("no TraceModulePanic event emitted")
	}
}

type tracerFunc func(TraceEvent)

func (f tracerFunc) TraceEvent(e TraceEvent) { f(e) }

// specModuleFor answers NoAlias for exactly one proposition, predicated on
// the given assertion (always-speculative for everything else).
func specModuleFor(name string, q *AliasQuery, a Assertion) *fakeModule {
	want := keyOfAlias(q)
	return &fakeModule{name: name, alias: func(qq *AliasQuery, h Handle) AliasResponse {
		if keyOfAlias(qq) == want {
			return AliasSpec(NoAlias, name, a)
		}
		return MayAliasResponse()
	}}
}

func aqN(i int64) *AliasQuery {
	return &AliasQuery{
		L1: MemLoc{Ptr: ir.CI(2*i + 101), Size: 8},
		L2: MemLoc{Ptr: ir.CI(2*i + 102), Size: 8},
	}
}

func TestSharedCacheInvalidateIsExact(t *testing.T) {
	q1, q2, q3 := aqN(1), aqN(2), aqN(3)
	a1 := Assertion{Module: "spec", Kind: "k1", Cost: 5}
	a2 := Assertion{Module: "spec", Kind: "k2", Cost: 7}
	m1 := specModuleFor("spec1", q1, a1)
	m2 := specModuleFor("spec2", q2, a2)
	free := &fakeModule{name: "free", alias: func(qq *AliasQuery, h Handle) AliasResponse {
		if keyOfAlias(qq) == keyOfAlias(q3) {
			return AliasFact(NoAlias, "free")
		}
		return MayAliasResponse()
	}}
	sc := NewSharedCache()
	o := NewOrchestrator(Config{Modules: []Module{m1, m2, free}, Shared: sc})
	o.Alias(q1)
	o.Alias(q2)
	o.Alias(q3)
	if a, _ := sc.Len(); a != 3 {
		t.Fatalf("published %d entries, want 3", a)
	}
	if n := indexedRows(sc); n != 2 {
		t.Fatalf("index rows = %d, want 2 (the free answer must not be indexed)", n)
	}

	inv := sc.InvalidateAsserts([]string{a1.String()})
	if inv.Total() != 1 || len(inv.Alias) != 1 {
		t.Fatalf("invalidated %d entries, want exactly 1", inv.Total())
	}
	got := inv.Alias[0]
	if got.L1 != q1.L1 || got.L2 != q1.L2 || got.Desired != AnyAlias {
		t.Errorf("reconstructed query = %+v, want %+v", got, q1)
	}
	if a, _ := sc.Len(); a != 2 {
		t.Errorf("len after invalidate = %d, want 2 (q2 and q3 untouched)", a)
	}
	if _, ok := sc.getAlias(keyOfAlias(q2)); !ok {
		t.Error("entry for an unrelated assertion was invalidated")
	}
	if _, ok := sc.getAlias(keyOfAlias(q3)); !ok {
		t.Error("assertion-free entry was invalidated")
	}
	if _, ok := sc.getAlias(keyOfAlias(q1)); ok {
		t.Error("invalidated entry still served")
	}
	// Invalidating the same key again finds nothing.
	if again := sc.InvalidateAsserts([]string{a1.String()}); again.Total() != 0 {
		t.Errorf("second invalidation removed %d entries", again.Total())
	}
}

// An entry invalidated through one of its assertions leaves the rows of
// the others too. Once the query is republished under other assertions,
// invalidating the first entry's other assertion must neither remove nor
// report the new entry.
func TestSharedCacheInvalidateSkipsStaleRows(t *testing.T) {
	k := keyOfAlias(aqN(30))
	a1 := Assertion{Module: "spec", Kind: "s1", Cost: 1}
	a2 := Assertion{Module: "spec", Kind: "s2", Cost: 1}
	a3 := Assertion{Module: "spec", Kind: "s3", Cost: 1}
	sc := NewSharedCache()
	sc.putAlias(k, AliasSpec(NoAlias, "spec", a1, a2))
	if inv := sc.InvalidateAsserts([]string{a1.String()}); inv.Total() != 1 {
		t.Fatalf("invalidating a1 removed %d entries, want 1", inv.Total())
	}
	sc.putAlias(k, AliasSpec(NoAlias, "spec", a3))
	if _, ok := sc.getAlias(k); !ok {
		t.Fatal("republished entry not served")
	}
	if inv := sc.InvalidateAsserts([]string{a2.String()}); inv.Total() != 0 {
		t.Errorf("invalidating a2 reported %d entries; the resident entry rests only on a3", inv.Total())
	}
	if _, ok := sc.getAlias(k); !ok {
		t.Error("entry resting on a3 was removed by invalidating a2")
	}
	if inv := sc.InvalidateAsserts([]string{a3.String()}); inv.Total() != 1 {
		t.Errorf("invalidating a3 removed %d entries, want 1", inv.Total())
	}
}

// indexedRows counts the assertion rows of every shard's store; an
// assertion that entries in several shards rest on has a row in each.
func indexedRows(c *SharedCache) int {
	return planeRows(&c.alias) + planeRows(&c.modref)
}

func planeRows[K predstore.Key, V any](p *plane[K, V]) (n int) {
	for i := range p {
		p[i].mu.Lock()
		n += p[i].s.Indexed()
		p[i].mu.Unlock()
	}
	return n
}

// Invalidating one assertion takes its entries out of the rows of their
// other assertions too. When rows were append-only, the a2 row still named
// all 100 entries after they were gone.
func TestSharedCacheInvalidateDropsEveryRow(t *testing.T) {
	a1 := Assertion{Module: "spec", Kind: "r1", Cost: 1}
	a2 := Assertion{Module: "spec", Kind: "r2", Cost: 1}
	sc := NewSharedCache()
	for i := 0; i < 100; i++ {
		sc.putAlias(keyOfAlias(aqN(int64(200+i))), AliasSpec(NoAlias, "spec", a1, a2))
	}
	if inv := sc.InvalidateAsserts([]string{a1.String()}); inv.Total() != 100 {
		t.Fatalf("invalidating a1 removed %d entries, want 100", inv.Total())
	}
	if a, _ := sc.Len(); a != 0 {
		t.Fatalf("%d entries resident after invalidating a1", a)
	}
	if n := indexedRows(sc); n != 0 {
		t.Fatalf("%d index rows outlive their entries", n)
	}
}

// A Flush racing a publication must not leave a resident entry out of its
// rows: InvalidateAsserts must then still remove and report it, or
// /observe's invalidated count and eager re-resolve skip it. When the
// index was one global map, a put inserted under its shard lock and
// indexed after it, and Flush emptied the shards before it reset the
// index, so an entry could land between the two and never be indexed.
func TestSharedCacheInvalidateAfterFlushRace(t *testing.T) {
	a := Assertion{Module: "spec", Kind: "fr", Cost: 1}
	resp := AliasSpec(NoAlias, "spec", a)
	keys := make([]aliasKey, 400)
	for i := range keys {
		keys[i] = keyOfAlias(aqN(int64(1000 + i)))
	}
	// With the global index, the interleaving that lost an entry came up
	// in 4–13% of rounds, and in 62–80% under the race detector.
	rounds := 200
	if raceEnabled {
		rounds = 40
	}
	for round := 0; round < rounds; round++ {
		sc := NewSharedCache()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for _, k := range keys {
				sc.putAlias(k, resp)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				sc.Flush()
			}
		}()
		wg.Wait()
		resident, _ := sc.Len()
		inv := sc.InvalidateAsserts([]string{a.String()})
		if left, _ := sc.Len(); inv.Total() != resident || left != 0 {
			t.Fatalf("round %d: %d resident entries, invalidation reported %d and left %d", round, resident, inv.Total(), left)
		}
	}
}

func TestSharedCacheRevokerBlocksLookupAndPut(t *testing.T) {
	q1 := aqN(10)
	a1 := Assertion{Module: "spec", Kind: "rv", Cost: 3}
	sc := NewSharedCache()
	rev := newStubRevoker()
	sc.SetRevoker(rev)

	o := NewOrchestrator(Config{Modules: []Module{specModuleFor("spec", q1, a1)}, Shared: sc})
	o.Alias(q1)
	if _, ok := sc.getAlias(keyOfAlias(q1)); !ok {
		t.Fatal("entry not published")
	}
	rev.Revoke(a1.String())
	if _, ok := sc.getAlias(keyOfAlias(q1)); ok {
		t.Error("lookup served an answer predicated on a revoked assertion")
	}

	// Put-time: a fresh publication predicated on the revoked assertion is
	// dropped, and does not block an assertion-free replacement.
	sc2 := NewSharedCache()
	sc2.SetRevoker(rev)
	o2 := NewOrchestrator(Config{Modules: []Module{specModuleFor("spec", q1, a1)}, Shared: sc2})
	o2.Alias(q1)
	if a, _ := sc2.Len(); a != 0 {
		t.Errorf("revoked-at-put entry was published (%d entries)", a)
	}
}

func TestSharedCacheFlush(t *testing.T) {
	sc := NewSharedCache()
	q1 := aqN(20)
	a1 := Assertion{Module: "spec", Kind: "fl", Cost: 1}
	o := NewOrchestrator(Config{Modules: []Module{specModuleFor("spec", q1, a1)}, Shared: sc})
	o.Alias(q1)
	if a, m := sc.Flush(); a != 1 || m != 0 {
		t.Errorf("Flush removed %d/%d, want 1/0", a, m)
	}
	if a, m := sc.Len(); a != 0 || m != 0 {
		t.Errorf("cache non-empty after flush: %d/%d", a, m)
	}
	if n := indexedRows(sc); n != 0 {
		t.Errorf("index non-empty after flush: %d", n)
	}
}

// Satellite: under -race, the SharedCache must never serve an answer
// predicated on an assertion that was observably quarantined before the
// lookup started. Revocation is monotonic, so "revoked-before-get implies
// miss" is the exact invariant; 16 workers query/publish while one
// goroutine revokes and invalidates.
func TestSharedCacheQuarantineRace(t *testing.T) {
	const nkeys = 64
	sc := NewSharedCache()
	rev := newStubRevoker()
	sc.SetRevoker(rev)

	asserts := make([]string, nkeys)
	keys := make([]aliasKey, nkeys)
	resps := make([]AliasResponse, nkeys)
	for i := range keys {
		a := Assertion{Module: "spec", Kind: fmt.Sprintf("race-%d", i), Cost: 1}
		asserts[i] = a.String()
		keys[i] = keyOfAlias(aqN(int64(100 + i)))
		resps[i] = AliasSpec(NoAlias, "spec", a)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; ; it++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (it*7 + w) % nkeys
				revokedBefore := rev.RevokedAssert(asserts[i])
				if _, ok := sc.getAlias(keys[i]); ok {
					if revokedBefore {
						t.Errorf("key %d: served an answer predicated on an already-revoked assertion", i)
						return
					}
				} else {
					sc.putAlias(keys[i], resps[i])
				}
			}
		}(w)
	}

	for i := 0; i < nkeys; i++ {
		rev.Revoke(asserts[i])
		sc.InvalidateAsserts([]string{asserts[i]})
	}
	close(stop)
	wg.Wait()

	// Everything is revoked now: no lookup may hit, whatever the racing
	// workers re-published.
	for i := range keys {
		if _, ok := sc.getAlias(keys[i]); ok {
			t.Errorf("key %d still served after revocation", i)
		}
	}
}
