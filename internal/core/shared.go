package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"scaf/internal/cfg"
	"scaf/internal/ir"
	"scaf/internal/predstore"
)

// Revoker reports assertions that have been withdrawn — violated at run
// time and quarantined (see internal/recovery). Keys are the wire identity
// Assertion.String(). Implementations must be safe for concurrent use and
// monotonic: once a key is revoked it stays revoked, so a revocation
// observed before a cache lookup is guaranteed to make that lookup miss.
type Revoker = predstore.Revoker

// SharedCache is a concurrency-safe memo table for query results, shared
// by several orchestrators (typically one per worker goroutine) analyzing
// the same program under the same configuration. Cached propositions embed
// module answers, so a cache must never be shared across orchestrators
// with different module sets, policies, or routing — build one cache per
// (program, configuration) pair.
//
// Publication rule: the orchestrator publishes only canonical entries —
// complete (not cut short by the timeout policy), top-level (depth 0, so
// no enclosing in-flight proposition could have degraded a nested premise
// into a conservative cycle-break), untainted (no module panic), and for
// alias queries only the Desired == AnyAlias form (the desired-result
// parameter changes which modules answer, not the proposition, so other
// forms are not canonical). Lookups are restricted to the same top-level
// queries. Because a canonical resolution is a pure function of the
// proposition and the configuration, a hit is bit-identical to a fresh
// resolution, and parallel runs sharing a cache stay equivalent to serial
// runs no matter how workers interleave.
//
// Recovery support: each entry records the String() keys of every
// assertion its options are predicated on, and its shard's store indexes
// it under each of them. A violated assertion therefore invalidates
// exactly the answers predicated on it (InvalidateAsserts), and an
// attached Revoker (SetRevoker) is consulted on every lookup and
// publication so a revocation is effective the instant it happens — even
// before the invalidation sweep runs.
type SharedCache struct {
	alias  plane[aliasKey, AliasResponse]
	modref plane[modrefKey, ModRefResponse]

	// revMu guards revoker; reads are per-lookup, writes are rare.
	revMu   sync.RWMutex
	revoker Revoker

	// intern is the session's assertion-identity table: every orchestrator
	// attached to this cache interns through it, so handle equality spans
	// worker goroutines and published entries always carry handles.
	intern *Interner
}

const sharedShards = 64

// plane is one query kind's half of the cache: sharedShards stores, each
// under its own lock, so an entry and its index rows change together and
// no lock spans shards. Entries are unbounded; each counts 1 in its
// store's accounting.
type plane[K predstore.Key, V any] [sharedShards]struct {
	mu sync.Mutex
	s  predstore.Store[K, V]
}

func (p *plane[K, V]) get(k K, rev Revoker) (V, bool) {
	sh := &p[k.Hash()%sharedShards]
	sh.mu.Lock()
	var r V
	v, _, ok := sh.s.Get(k, rev)
	if ok {
		r = *v
	}
	sh.mu.Unlock()
	return r, ok
}

// put publishes r, resting on asserts, under the store's first-entry-wins
// rule.
func (p *plane[K, V]) put(k K, r V, asserts []string, rev Revoker) {
	sh := &p[k.Hash()%sharedShards]
	sh.mu.Lock()
	sh.s.Put(k, r, asserts, 1, rev)
	sh.mu.Unlock()
}

// invalidate removes every entry resting on any of asserts and returns
// their keys.
func (p *plane[K, V]) invalidate(asserts []string) []K {
	var out []K
	for i := range p {
		p[i].mu.Lock()
		out = p[i].s.Invalidate(asserts, out)
		p[i].mu.Unlock()
	}
	return out
}

func (p *plane[K, V]) flush() (n int) {
	for i := range p {
		p[i].mu.Lock()
		n += p[i].s.Flush()
		p[i].mu.Unlock()
	}
	return n
}

func (p *plane[K, V]) len() (n int) {
	for i := range p {
		p[i].mu.Lock()
		n += p[i].s.Len()
		p[i].mu.Unlock()
	}
	return n
}

// NewSharedCache returns an empty cache ready for concurrent use.
func NewSharedCache() *SharedCache {
	return &SharedCache{intern: NewInterner()}
}

// Interner returns the cache's session-scoped assertion-identity table.
func (c *SharedCache) Interner() *Interner { return c.intern }

// SetRevoker attaches (or, with nil, detaches) the revocation source
// consulted on every lookup and publication. Safe to call concurrently
// with queries; typically set once at session construction.
func (c *SharedCache) SetRevoker(r Revoker) {
	c.revMu.Lock()
	c.revoker = r
	c.revMu.Unlock()
}

func (c *SharedCache) currentRevoker() Revoker {
	c.revMu.RLock()
	r := c.revoker
	c.revMu.RUnlock()
	return r
}

// Len reports the number of published alias and mod-ref entries.
func (c *SharedCache) Len() (alias, modref int) {
	return c.alias.len(), c.modref.len()
}

// getAlias answers a top-level alias lookup.
func (c *SharedCache) getAlias(k aliasKey) (AliasResponse, bool) {
	return c.alias.get(k, c.currentRevoker())
}

// putAlias publishes a canonical alias answer.
func (c *SharedCache) putAlias(k aliasKey, r AliasResponse) {
	c.alias.put(k, r, optionAssertKeys(r.Options), c.currentRevoker())
}

// getModRef answers a top-level mod-ref lookup.
func (c *SharedCache) getModRef(k modrefKey) (ModRefResponse, bool) {
	return c.modref.get(k, c.currentRevoker())
}

// putModRef publishes a canonical mod-ref answer.
func (c *SharedCache) putModRef(k modrefKey, r ModRefResponse) {
	c.modref.put(k, r, optionAssertKeys(r.Options), c.currentRevoker())
}

// Invalidated lists the canonical queries whose cached answers an
// invalidation removed — exactly the propositions a recovery pass must
// re-resolve under the degraded plan. Queries are reconstructed from the
// cache keys (top-level form, Desired == AnyAlias) and returned in a
// deterministic order.
type Invalidated struct {
	Alias  []*AliasQuery
	ModRef []*ModRefQuery
}

// Total is the number of removed entries.
func (iv Invalidated) Total() int { return len(iv.Alias) + len(iv.ModRef) }

// InvalidateAsserts removes every cache entry predicated on any of the
// given assertion keys (Assertion.String() identities) and returns the
// queries those entries answered. Entries whose options never mention a
// given key are untouched — the stores' assertion rows make invalidation
// exact, not a flush. Safe for concurrent use with queries; lookups
// racing an invalidation are already protected by the Revoker check.
func (c *SharedCache) InvalidateAsserts(keys []string) Invalidated {
	var out Invalidated
	for _, k := range c.alias.invalidate(keys) {
		out.Alias = append(out.Alias, k.query())
	}
	for _, k := range c.modref.invalidate(keys) {
		out.ModRef = append(out.ModRef, k.query())
	}
	sort.Slice(out.Alias, func(i, j int) bool {
		return out.Alias[i].describe() < out.Alias[j].describe()
	})
	sort.Slice(out.ModRef, func(i, j int) bool {
		return out.ModRef[i].describe() < out.ModRef[j].describe()
	})
	return out
}

// Flush drops every entry, returning the number of removed alias and
// mod-ref entries. This is the (deliberately blunt) recovery rule for a
// quarantined *module*: a module contributes to answers through premises
// without necessarily appearing in their assertion sets, so per-entry
// attribution would under-invalidate.
func (c *SharedCache) Flush() (alias, modref int) {
	return c.alias.flush(), c.modref.flush()
}

// query reconstructs the canonical top-level query an aliasKey was
// published under (Desired == AnyAlias by the publication rule).
func (k aliasKey) query() *AliasQuery {
	return &AliasQuery{
		L1:   MemLoc{Ptr: k.p1, Size: k.s1},
		L2:   MemLoc{Ptr: k.p2, Size: k.s2},
		Rel:  k.rel,
		Loop: k.loop,
		DT:   k.dt,
		PDT:  k.pdt,
	}
}

func (k modrefKey) query() *ModRefQuery {
	return &ModRefQuery{
		I1:   k.i1,
		I2:   k.i2,
		Loc:  MemLoc{Ptr: k.locPtr, Size: k.locSize},
		Rel:  k.rel,
		Loop: k.loop,
		DT:   k.dt,
		PDT:  k.pdt,
	}
}

// optionAssertKeys collects the deduplicated, sorted String() keys of
// every assertion across the option set; nil when the answer is
// assertion-free. The assertion-free case — every NoDep answer memory
// analysis proves outright — is the common one on the publication path, so
// it is detected with a scan and returns without allocating anything. So
// is an answer resting on one interned assertion, however many options
// repeat it: it shares the handle's one-key slice, which no caller
// mutates.
func optionAssertKeys(opts []Option) []string {
	n := 0
	var sole *internedAssert
	single := true
	for _, o := range opts {
		n += len(o.Asserts)
		for i := range o.Asserts {
			h := o.Asserts[i].intern
			single = single && h != nil && (sole == nil || h == sole)
			sole = h
		}
	}
	if n == 0 {
		return nil
	}
	if single {
		return sole.str[:]
	}
	keys := make([]string, 0, n)
	for _, o := range opts {
	perAssert:
		for i := range o.Asserts {
			k := o.Asserts[i].String()
			// Assertion sets are tiny (a handful of distinct checks per
			// answer), so a linear dedup scan beats a map allocation.
			for _, have := range keys {
				if have == k {
					continue perAssert
				}
			}
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Hash mixes the proposition's stable integer fields. It picks the key's
// shard and its chain in that shard's store; keys that differ only in the
// fields it leaves out (the dominator trees) share a chain, which costs a
// comparison, never a wrong hit.
func (k aliasKey) Hash() uint64 {
	h := mixHash(17, valueID(k.p1))
	h = mixHash(h, valueID(k.p2))
	h = mixHash(h, uint64(k.s1))
	h = mixHash(h, uint64(k.s2))
	h = mixHash(h, uint64(k.rel))
	return mixHash(h, loopID(k.loop))
}

func (k modrefKey) Hash() uint64 {
	h := mixHash(23, instrID(k.i1))
	h = mixHash(h, instrID(k.i2))
	h = mixHash(h, valueID(k.locPtr))
	h = mixHash(h, uint64(k.locSize))
	h = mixHash(h, uint64(k.rel))
	return mixHash(h, loopID(k.loop))
}

// mixHash folds x into h, FNV-1a style over whole words, and folds the
// high half down so the low bits that pick a shard depend on all of them.
func mixHash(h, x uint64) uint64 {
	h = (h ^ x) * 1099511628211
	return h ^ h>>32
}

func instrID(in *ir.Instr) uint64 {
	if in == nil {
		return 0
	}
	return uint64(in.ID) + 1
}

func loopID(l *cfg.Loop) uint64 {
	if l == nil {
		return 0
	}
	return uint64(l.ID) + 1
}

// valueID extracts a stable integer from the common ir.Value shapes.
// Every shape must map to a per-type discriminant: an unknown kind that
// hashed to a constant would funnel every query over it into one shard,
// serializing that shard's lock (see TestValueIDShardDistribution).
func valueID(v ir.Value) uint64 {
	switch t := v.(type) {
	case nil:
		return 0
	case *ir.Instr:
		return uint64(t.ID)*4 + 1
	case *ir.Param:
		return uint64(t.Idx)*4 + 2
	case *ir.ConstInt:
		return uint64(t.V)*4 + 3
	case *ir.ConstFloat:
		return math.Float64bits(t.V)*4 + 11
	case *ir.ConstNull:
		return 13
	case *ir.Global:
		h := uint64(1469598103934665603)
		for i := 0; i < len(t.GName); i++ {
			h = (h ^ uint64(t.GName[i])) * 1099511628211
		}
		return h
	default:
		// A value kind this switch does not know yet still gets a spread:
		// hash the dynamic type name and the value's printed form so
		// distinct values land in distinct shards instead of all colliding
		// on one constant. Cold path — every current kind is enumerated
		// above.
		h := uint64(1469598103934665603)
		for _, s := range [2]string{fmt.Sprintf("%T", v), v.String()} {
			for i := 0; i < len(s); i++ {
				h = (h ^ uint64(s[i])) * 1099511628211
			}
		}
		return h
	}
}
