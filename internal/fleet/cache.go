package fleet

import (
	"sort"
	"sync"

	"scaf/internal/predstore"
)

// Entry is one canonical cache record as it moves between instances:
// an opaque key, the wire bytes of the answer, and the keys of the
// assertions the answer is predicated on (empty for pure facts). The
// producer guarantees the value is canonical — byte-identical to what any
// instance would compute fresh — so consumers can serve it verbatim.
type Entry struct {
	Key     string   `json:"key"`
	Value   []byte   `json:"value"`
	Asserts []string `json:"asserts,omitempty"`
}

// DefaultCacheBytes is a shard's byte budget when none is configured.
const DefaultCacheBytes = 8 << 20

// Accounted bytes of one entry beyond its key, value and assertion keys:
// a slot and its hash-index row per entry, an Asserts string header and
// an assertion-row element per assertion.
const (
	entryOverhead  = 96
	assertOverhead = 16
)

// entryBytes is what e counts against a shard's budget.
func entryBytes(e Entry) int64 {
	n := int64(entryOverhead + len(e.Key) + len(e.Value))
	for _, a := range e.Asserts {
		n += int64(assertOverhead + len(a))
	}
	return n
}

// Cache is one instance's shard of the fleet cache: a predstore.Store
// from key to value bytes, whose assertion rows make invalidation exact,
// and a monotone revoked-assertion set. The monotone set gives the fleet
// the same guarantee recovery.Quarantine gives one process: once an
// assertion key is revoked here, no entry predicated on it can be
// inserted or served, ever — revocation-before-lookup implies a
// guaranteed miss. Invalidation applies a revocation and removes its
// entries under one lock, so no resident entry rests on a revoked key.
//
// The entries are bounded by a byte budget, past which the store evicts
// by CLOCK. Evicting an entry is forgetting an answer, which is always
// safe; the revoked set is never evicted.
//
// A Get may name a check its caller's values must pass, such as "is one
// JSON object". A value remembers that it passed, so the check runs once
// per stored entry, on its first hit and under the shard lock, not on
// every hit. A value that fails is removed, which frees its key for the
// next Put: first-write-wins would otherwise keep the bad bytes in front
// of every correct publication of that key for good.
type Cache struct {
	mu      sync.RWMutex
	entries predstore.Store[predstore.String, value]
	revoked revokedSet
	budget  int64

	revokeHook func([]string)
	evictHook  func(string)

	hits, misses, puts, rejects, invalidated, evicted int64
}

// value is a resident entry's bytes and whether they passed the check
// its key's Gets name.
type value struct {
	bytes   []byte
	checked bool
}

// revokedSet is the monotone revoked-assertion set, in the form the
// store's put rule consults.
type revokedSet map[string]bool

func (r revokedSet) RevokedAssert(key string) bool { return r[key] }

// CacheStats is a point-in-time snapshot of a shard's counters.
type CacheStats struct {
	Entries     int   `json:"entries"`
	Revoked     int   `json:"revoked"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Puts        int64 `json:"puts"`
	Rejects     int64 `json:"rejects"`
	Invalidated int64 `json:"invalidated"`
	// Bytes is what the resident entries count against Budget; Evicted
	// counts entries the budget evicted or refused as larger than itself.
	Bytes   int64 `json:"bytes"`
	Budget  int64 `json:"budget"`
	Evicted int64 `json:"evicted"`
}

// NewCache returns an empty shard bounded by budget accounted bytes
// (0 or less: DefaultCacheBytes).
func NewCache(budget int64) *Cache {
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	c := &Cache{revoked: revokedSet{}, budget: budget}
	c.entries.SetBudget(budget, c.noteEvicted)
	return c
}

// noteEvicted counts one eviction of key and reports it to the evict
// hook; the store calls it under the shard lock.
func (c *Cache) noteEvicted(key predstore.String) {
	c.evicted++
	if c.evictHook != nil {
		c.evictHook(string(key))
	}
}

// Get returns the entry bytes for key, if present. A non-nil check must
// accept the value: the first Get that names one runs it, later Gets
// serve a value that passed without running it again, and a value that
// fails is removed and counts as a miss. Every caller of one key must
// name the same check.
func (c *Cache) Get(key string, check func([]byte) bool) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, _, ok := c.entries.Get(predstore.String(key), nil)
	if ok && check != nil && !v.checked {
		if ok = check(v.bytes); ok {
			v.checked = true
		} else {
			c.entries.Remove(predstore.String(key))
		}
	}
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	return v.bytes, true
}

// Put inserts e unless the key is already present (entries are canonical,
// so the first writer wins and later identical writes are no-ops), any
// of its assertions has been revoked (the monotone guaranteed-miss rule),
// or it is larger than the whole budget (counted as an eviction). To make
// room it evicts by CLOCK. Returns whether the entry was inserted.
func (c *Cache) Put(e Entry) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.putLocked(e)
}

func (c *Cache) putLocked(e Entry) bool {
	switch c.entries.Put(predstore.String(e.Key), value{bytes: e.Value}, e.Asserts, entryBytes(e), c.revoked) {
	case predstore.Inserted:
		c.puts++
		return true
	case predstore.Revoked:
		c.rejects++
	}
	return false
}

// AnyRevoked reports whether any of keys is in the revoked set.
func (c *Cache) AnyRevoked(keys []string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, k := range keys {
		if c.revoked[k] {
			return true
		}
	}
	return false
}

// InvalidateAsserts marks each assertion key revoked (monotone — never
// un-revoked) and deletes every indexed entry predicated on one. Returns
// the number of entries removed.
func (c *Cache) InvalidateAsserts(keys []string) int {
	c.mu.Lock()
	for _, a := range keys {
		c.revoked[a] = true
	}
	removed := len(c.entries.Invalidate(keys, nil))
	c.invalidated += int64(removed)
	hook := c.revokeHook
	c.mu.Unlock()
	if hook != nil && len(keys) > 0 {
		hook(keys)
	}
	return removed
}

// SetRevokeHook registers fn to observe every revocation, called with
// the assertion keys after they are applied (outside the lock). This is
// the persistence seam: the hook appends to the on-disk revoked-set
// journal, so revocations are durable the moment they happen rather
// than only at the next snapshot. Set once, before traffic.
func (c *Cache) SetRevokeHook(fn func([]string)) {
	c.mu.Lock()
	c.revokeHook = fn
	c.mu.Unlock()
}

// SetEvictHook registers fn to observe every key the budget evicts or
// refuses as too large, one call per count in CacheStats.Evicted. It
// runs under the shard lock, so that an observer never sees a later
// operation of the shard before an eviction it made; it must therefore
// not call back into the Cache. Set once, before traffic.
func (c *Cache) SetEvictHook(fn func(key string)) {
	c.mu.Lock()
	c.evictHook = fn
	c.mu.Unlock()
}

// RevokedKeys returns the revoked assertion keys in sorted order — what
// a snapshot and a streamed segment carry besides the entries.
func (c *Cache) RevokedKeys() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.revoked))
	for k := range c.revoked {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SnapshotEntries returns a copy of the live entries sorted by key — a
// consistent point-in-time view taken under the shard lock, so it never
// contains a half-applied mutation. Values are the canonical wire bytes
// and are never mutated after Put, so sharing the slices is safe.
func (c *Cache) SnapshotEntries() []Entry {
	c.mu.RLock()
	out := make([]Entry, 0, c.entries.Len())
	c.entries.Each(func(k predstore.String, v *value, asserts []string) {
		out = append(out, Entry{Key: string(k), Value: v.bytes, Asserts: asserts})
	})
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Restore seeds the shard from persisted state: revocations are applied
// first (monotone, so replaying them is always safe), then entries are
// inserted under Put's rules — which means an entry predicated on a
// revoked assertion is rejected here exactly as it would be live, so a
// reload can never resurrect a quarantined answer, and the budget holds
// as it does live. Returns how many entries landed (a later one may have
// evicted an earlier one) and how many were rejected by the revoked check.
func (c *Cache) Restore(revoked []string, entries []Entry) (inserted, rejected int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, a := range revoked {
		c.revoked[a] = true
	}
	for _, e := range entries {
		before := c.rejects
		if c.putLocked(e) {
			inserted++
		} else if c.rejects > before {
			rejected++
		}
	}
	return inserted, rejected
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.entries.Len()
}

// Flush drops all entries but keeps the revoked set: forgetting answers
// is always safe, forgetting revocations never is.
func (c *Cache) Flush() {
	c.mu.Lock()
	c.entries.Flush()
	c.mu.Unlock()
}

// Stats snapshots the shard's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return CacheStats{
		Entries:     c.entries.Len(),
		Revoked:     len(c.revoked),
		Hits:        c.hits,
		Misses:      c.misses,
		Puts:        c.puts,
		Rejects:     c.rejects,
		Invalidated: c.invalidated,
		Bytes:       c.entries.Bytes(),
		Budget:      c.budget,
		Evicted:     c.evicted,
	}
}
