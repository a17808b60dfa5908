package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"scaf/internal/ir"
)

// Revoker reports assertions that have been withdrawn — violated at run
// time and quarantined (see internal/recovery). Keys are the wire identity
// Assertion.String(). Implementations must be safe for concurrent use and
// monotonic: once a key is revoked it stays revoked, so a revocation
// observed before a cache lookup is guaranteed to make that lookup miss.
type Revoker interface {
	RevokedAssert(key string) bool
}

// CachePeer is a second-level lookaside tier behind a SharedCache — the
// seam the fleet layer plugs a *remote* cache into. On a local top-level
// miss the cache consults the peer; on a local canonical publication it
// notifies the peer. Because the cache only ever publishes canonical
// entries (complete, top-level, untainted — see the publication rule
// below), everything a peer can return is a pure function of the
// proposition and the configuration, so a remote hit is byte-identical to
// a fresh local resolution by the same argument that makes local shared
// hits safe.
//
// Implementations decide their own key space and serialization (the fleet
// tier keys on process-independent wire refs and round-trips responses
// through a codec); a peer that cannot represent a query exactly must
// report a miss on Get and ignore the Put — partial coverage degrades hit
// rate, never answers. Implementations must be safe for concurrent use.
type CachePeer interface {
	GetAlias(q *AliasQuery) (AliasResponse, bool)
	PutAlias(q *AliasQuery, asserts []string, r AliasResponse)
	GetModRef(q *ModRefQuery) (ModRefResponse, bool)
	PutModRef(q *ModRefQuery, asserts []string, r ModRefResponse)
}

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
// assertion its options are predicated on, and an inverted index maps
// assertion key → dependent entries. A violated assertion therefore
// invalidates exactly the answers predicated on it (InvalidateAsserts),
// and an attached Revoker (SetRevoker) is consulted on every lookup so a
// revocation is effective the instant it happens — even before the
// invalidation sweep runs.
type SharedCache struct {
	alias  [sharedShards]aliasShard
	modref [sharedShards]modrefShard

	// revMu guards revoker; reads are per-lookup, writes are rare.
	revMu   sync.RWMutex
	revoker Revoker

	// peerMu guards peer — the optional remote lookaside tier.
	peerMu sync.RWMutex
	peer   CachePeer

	// idxMu guards index: assertion key → entries predicated on it.
	// Refs are append-only and may go stale once an entry is deleted or
	// replaced; stale refs are harmless (invalidation removes and reports
	// only resident entries that still carry an invalidated key).
	idxMu sync.Mutex
	index map[string][]entryRef

	// intern is the session's assertion-identity table: every orchestrator
	// attached to this cache interns through it, so handle equality spans
	// worker goroutines and published entries always carry handles.
	intern *Interner
}

const sharedShards = 64

type aliasShard struct {
	mu sync.RWMutex
	m  map[aliasKey]aliasEntry
}

type modrefShard struct {
	mu sync.RWMutex
	m  map[modrefKey]modrefEntry
}

// aliasEntry pairs a published response with the deduplicated, sorted
// String() keys of every assertion appearing in any of its options — nil
// for assertion-free answers, which therefore cost nothing extra and can
// never be invalidated.
type aliasEntry struct {
	resp    AliasResponse
	asserts []string
}

type modrefEntry struct {
	resp    ModRefResponse
	asserts []string
}

// entryRef names one cache entry in the inverted index.
type entryRef struct {
	alias bool
	a     aliasKey
	m     modrefKey
}

// NewSharedCache returns an empty cache ready for concurrent use.
func NewSharedCache() *SharedCache {
	c := &SharedCache{index: map[string][]entryRef{}, intern: NewInterner()}
	for i := range c.alias {
		c.alias[i].m = map[aliasKey]aliasEntry{}
	}
	for i := range c.modref {
		c.modref[i].m = map[modrefKey]modrefEntry{}
	}
	return c
}

// Interner returns the cache's session-scoped assertion-identity table.
func (c *SharedCache) Interner() *Interner { return c.intern }

// SetPeer attaches (or, with nil, detaches) the remote lookaside tier.
// Safe to call concurrently with queries; typically set once at session
// construction.
func (c *SharedCache) SetPeer(p CachePeer) {
	c.peerMu.Lock()
	c.peer = p
	c.peerMu.Unlock()
}

func (c *SharedCache) currentPeer() CachePeer {
	c.peerMu.RLock()
	p := c.peer
	c.peerMu.RUnlock()
	return p
}

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

// revoked reports whether any of the entry's supporting assertions has
// been withdrawn by the attached Revoker.
func (c *SharedCache) revoked(asserts []string) bool {
	if len(asserts) == 0 {
		return false
	}
	r := c.currentRevoker()
	if r == nil {
		return false
	}
	for _, k := range asserts {
		if r.RevokedAssert(k) {
			return true
		}
	}
	return false
}

// Len reports the number of published alias and mod-ref entries.
func (c *SharedCache) Len() (alias, modref int) {
	for i := range c.alias {
		c.alias[i].mu.RLock()
		alias += len(c.alias[i].m)
		c.alias[i].mu.RUnlock()
	}
	for i := range c.modref {
		c.modref[i].mu.RLock()
		modref += len(c.modref[i].m)
		c.modref[i].mu.RUnlock()
	}
	return alias, modref
}

// IndexedAsserts reports how many distinct assertion keys the inverted
// index currently tracks (stale keys included until invalidated).
func (c *SharedCache) IndexedAsserts() int {
	c.idxMu.Lock()
	n := len(c.index)
	c.idxMu.Unlock()
	return n
}

// getAlias answers a top-level lookup: the local table first, then — when
// the caller permits (usePeer) — the attached remote peer. A peer hit is
// interned through the session's interner, installed locally (without
// echoing back to the peer) and reported with remote=true so the
// orchestrator can account for it.
func (c *SharedCache) getAlias(k aliasKey, q *AliasQuery, usePeer bool) (resp AliasResponse, ok, remote bool) {
	s := &c.alias[k.shard()%sharedShards]
	s.mu.RLock()
	e, found := s.m[k]
	s.mu.RUnlock()
	if found && !c.revoked(e.asserts) {
		return e.resp, true, false
	}
	if !usePeer {
		return AliasResponse{}, false, false
	}
	p := c.currentPeer()
	if p == nil {
		return AliasResponse{}, false, false
	}
	r, hit := p.GetAlias(q)
	if !hit {
		return AliasResponse{}, false, false
	}
	r.Options = c.intern.options(r.Options)
	// The peer's entry may predicate on an assertion this process has
	// already revoked (recovery broadcasts race); the Revoker stays
	// authoritative over anything remote.
	if c.revoked(optionAssertKeys(r.Options)) {
		return AliasResponse{}, false, false
	}
	c.installAlias(k, r)
	return r, true, true
}

func (c *SharedCache) putAlias(k aliasKey, r AliasResponse) {
	if inserted, asserts := c.installAlias(k, r); inserted {
		if p := c.currentPeer(); p != nil {
			p.PutAlias(k.query(), asserts, r)
		}
	}
}

// installAlias inserts locally under the first-entry-wins rule, without
// notifying the peer — shared by local publication (which then notifies)
// and peer-hit installation (which must not echo).
func (c *SharedCache) installAlias(k aliasKey, r AliasResponse) (bool, []string) {
	asserts := optionAssertKeys(r.Options)
	if c.revoked(asserts) {
		// A concurrent revocation already withdrew one of this answer's
		// premises; publishing it would let lookups race past the Revoker.
		return false, nil
	}
	s := &c.alias[k.shard()%sharedShards]
	s.mu.Lock()
	old, exists := s.m[k]
	// First entry wins — except that an entry predicated on a since-revoked
	// assertion no longer answers lookups and must not squat on the slot.
	inserted := !exists || c.revoked(old.asserts)
	if inserted {
		s.m[k] = aliasEntry{resp: r, asserts: asserts}
	}
	s.mu.Unlock()
	if inserted && len(asserts) > 0 {
		c.indexEntry(asserts, entryRef{alias: true, a: k})
	}
	return inserted, asserts
}

func (c *SharedCache) getModRef(k modrefKey, q *ModRefQuery, usePeer bool) (resp ModRefResponse, ok, remote bool) {
	s := &c.modref[k.shard()%sharedShards]
	s.mu.RLock()
	e, found := s.m[k]
	s.mu.RUnlock()
	if found && !c.revoked(e.asserts) {
		return e.resp, true, false
	}
	if !usePeer {
		return ModRefResponse{}, false, false
	}
	p := c.currentPeer()
	if p == nil {
		return ModRefResponse{}, false, false
	}
	r, hit := p.GetModRef(q)
	if !hit {
		return ModRefResponse{}, false, false
	}
	r.Options = c.intern.options(r.Options)
	if c.revoked(optionAssertKeys(r.Options)) {
		return ModRefResponse{}, false, false
	}
	c.installModRef(k, r)
	return r, true, true
}

func (c *SharedCache) putModRef(k modrefKey, r ModRefResponse) {
	if inserted, asserts := c.installModRef(k, r); inserted {
		if p := c.currentPeer(); p != nil {
			p.PutModRef(k.query(), asserts, r)
		}
	}
}

func (c *SharedCache) installModRef(k modrefKey, r ModRefResponse) (bool, []string) {
	asserts := optionAssertKeys(r.Options)
	if c.revoked(asserts) {
		return false, nil
	}
	s := &c.modref[k.shard()%sharedShards]
	s.mu.Lock()
	old, exists := s.m[k]
	inserted := !exists || c.revoked(old.asserts)
	if inserted {
		s.m[k] = modrefEntry{resp: r, asserts: asserts}
	}
	s.mu.Unlock()
	if inserted && len(asserts) > 0 {
		c.indexEntry(asserts, entryRef{alias: false, m: k})
	}
	return inserted, asserts
}

// OptionAssertKeys exposes the deduplicated, sorted assertion keys of an
// option set — what a CachePeer needs to index entries for invalidation.
func OptionAssertKeys(opts []Option) []string { return optionAssertKeys(opts) }

func (c *SharedCache) indexEntry(asserts []string, ref entryRef) {
	c.idxMu.Lock()
	for _, a := range asserts {
		c.index[a] = append(c.index[a], ref)
	}
	c.idxMu.Unlock()
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
// given key are untouched — the inverted index makes invalidation exact,
// not a flush. An index row can outlive its entry (the entry was
// invalidated through another of its keys, then the query was republished
// under different assertions), so an entry is removed only when the
// resident one still carries an invalidated key. Safe for concurrent use
// with queries; lookups racing an invalidation are already protected by
// the Revoker check.
func (c *SharedCache) InvalidateAsserts(keys []string) Invalidated {
	refs := map[entryRef]bool{}
	c.idxMu.Lock()
	for _, k := range keys {
		for _, ref := range c.index[k] {
			refs[ref] = true
		}
		delete(c.index, k)
	}
	c.idxMu.Unlock()

	var out Invalidated
	for ref := range refs {
		if ref.alias {
			s := &c.alias[ref.a.shard()%sharedShards]
			s.mu.Lock()
			e, ok := s.m[ref.a]
			ok = ok && carriesAny(e.asserts, keys)
			if ok {
				delete(s.m, ref.a)
			}
			s.mu.Unlock()
			if ok {
				out.Alias = append(out.Alias, ref.a.query())
			}
		} else {
			s := &c.modref[ref.m.shard()%sharedShards]
			s.mu.Lock()
			e, ok := s.m[ref.m]
			ok = ok && carriesAny(e.asserts, keys)
			if ok {
				delete(s.m, ref.m)
			}
			s.mu.Unlock()
			if ok {
				out.ModRef = append(out.ModRef, ref.m.query())
			}
		}
	}
	sort.Slice(out.Alias, func(i, j int) bool {
		return out.Alias[i].describe() < out.Alias[j].describe()
	})
	sort.Slice(out.ModRef, func(i, j int) bool {
		return out.ModRef[i].describe() < out.ModRef[j].describe()
	})
	return out
}

// carriesAny reports whether an entry's assertion keys include any of keys.
func carriesAny(asserts, keys []string) bool {
	for _, k := range keys {
		for _, a := range asserts {
			if a == k {
				return true
			}
		}
	}
	return false
}

// Flush drops every entry and the whole inverted index, returning the
// number of removed alias and mod-ref entries. This is the (deliberately
// blunt) recovery rule for a quarantined *module*: a module contributes to
// answers through premises without necessarily appearing in their
// assertion sets, so per-entry attribution would under-invalidate.
func (c *SharedCache) Flush() (alias, modref int) {
	for i := range c.alias {
		c.alias[i].mu.Lock()
		alias += len(c.alias[i].m)
		c.alias[i].m = map[aliasKey]aliasEntry{}
		c.alias[i].mu.Unlock()
	}
	for i := range c.modref {
		c.modref[i].mu.Lock()
		modref += len(c.modref[i].m)
		c.modref[i].m = map[modrefKey]modrefEntry{}
		c.modref[i].mu.Unlock()
	}
	c.idxMu.Lock()
	c.index = map[string][]entryRef{}
	c.idxMu.Unlock()
	return alias, modref
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
// it is detected with a scan and returns without allocating anything.
func optionAssertKeys(opts []Option) []string {
	n := 0
	for _, o := range opts {
		n += len(o.Asserts)
	}
	if n == 0 {
		return nil
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

// shard hashes the proposition for shard selection only — collisions are
// harmless (they just co-locate entries), so a cheap mix of the stable
// integer fields suffices.
func (k aliasKey) shard() uint64 {
	h := uint64(17)
	h = h*31 + valueID(k.p1)
	h = h*31 + valueID(k.p2)
	h = h*31 + uint64(k.s1)
	h = h*31 + uint64(k.s2)
	h = h*31 + uint64(k.rel)
	return h
}

func (k modrefKey) shard() uint64 {
	h := uint64(23)
	if k.i1 != nil {
		h = h*31 + uint64(k.i1.ID)
	}
	if k.i2 != nil {
		h = h*31 + uint64(k.i2.ID)
	}
	h = h*31 + valueID(k.locPtr)
	h = h*31 + uint64(k.locSize)
	h = h*31 + uint64(k.rel)
	return h
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
