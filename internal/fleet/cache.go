package fleet

import (
	"sort"
	"sync"
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
// a slot and its key-map row per entry, an Asserts string header and an
// index row per assertion.
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

// slot holds one resident entry by value. Entries live in one slice, so
// the collector scans the slice's strings and slices and nothing else:
// no per-entry object, and the key map and index rows hold slot numbers.
type slot struct {
	key     string
	value   []byte
	asserts []string
	size    int64 // accounted bytes; 0 marks a free slot
	ref     bool  // CLOCK reference bit: set by a hit, cleared by the hand
}

// Cache is one instance's shard of the fleet cache: a first-write-wins
// map from key to Entry, an inverted assertion→keys index mirroring
// core.SharedCache's, and a monotone revoked-assertion set. The monotone
// set gives the fleet the same guarantee recovery.Quarantine gives one
// process: once an assertion key is revoked here, no entry predicated on
// it can be inserted or served, ever — revocation-before-lookup implies a
// guaranteed miss.
//
// The entries are bounded by a byte budget. Once a Put would take the
// accounted bytes past it, CLOCK evicts: the hand sweeps the slots,
// clearing reference bits that hits set, and evicts the first entry
// whose bit is clear. Evicting an entry is forgetting an answer, which
// is always safe; the revoked set is never evicted.
type Cache struct {
	mu      sync.RWMutex
	keys    map[string]int32   // entry key -> slot
	slots   []slot             // resident entries and free slots
	free    []int32            // free slots, reused last freed first
	index   map[string][]int32 // assertion key -> slots predicated on it
	revoked map[string]bool

	budget, bytes int64
	hand          int

	revokeHook func([]string)
	evictHook  func(string)

	hits, misses, puts, rejects, invalidated, evicted int64
}

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
	return &Cache{
		keys:    make(map[string]int32),
		index:   make(map[string][]int32),
		revoked: make(map[string]bool),
		budget:  budget,
	}
}

// Get returns the entry bytes for key, if present.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.keys[key]; ok {
		s := &c.slots[i]
		s.ref = true
		c.hits++
		return s.value, true
	}
	c.misses++
	return nil, false
}

// GetBatch returns the entries present for keys, preserving key order.
func (c *Cache) GetBatch(keys []string) []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Entry
	for _, k := range keys {
		if i, ok := c.keys[k]; ok {
			s := &c.slots[i]
			s.ref = true
			c.hits++
			out = append(out, Entry{Key: s.key, Value: s.value, Asserts: s.asserts})
		} else {
			c.misses++
		}
	}
	return out
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

// PutBatch inserts each entry under Put's rules and returns how many landed.
func (c *Cache) PutBatch(es []Entry) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range es {
		if c.putLocked(e) {
			n++
		}
	}
	return n
}

func (c *Cache) putLocked(e Entry) bool {
	if _, dup := c.keys[e.Key]; dup {
		return false
	}
	for _, a := range e.Asserts {
		if c.revoked[a] {
			c.rejects++
			return false
		}
	}
	size := entryBytes(e)
	if size > c.budget {
		c.noteEvictedLocked(e.Key)
		return false
	}
	for c.bytes+size > c.budget {
		c.evictLocked()
	}
	var i int32
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		i = int32(len(c.slots))
		c.slots = append(c.slots, slot{})
	}
	c.slots[i] = slot{key: e.Key, value: e.Value, asserts: e.Asserts, size: size}
	c.keys[e.Key] = i
	for _, a := range e.Asserts {
		c.index[a] = append(c.index[a], i)
	}
	c.bytes += size
	c.puts++
	return true
}

// evictLocked advances the CLOCK hand to the next resident entry whose
// reference bit is clear, clearing the set bits it passes, and evicts
// that entry. The shard must hold at least one entry.
func (c *Cache) evictLocked() {
	for {
		if c.hand >= len(c.slots) {
			c.hand = 0
		}
		i := c.hand
		c.hand++
		s := &c.slots[i]
		if s.size == 0 {
			continue
		}
		if s.ref {
			s.ref = false
			continue
		}
		key := s.key
		c.removeLocked(int32(i))
		c.noteEvictedLocked(key)
		return
	}
}

// noteEvictedLocked counts one eviction of key and reports it to the
// evict hook.
func (c *Cache) noteEvictedLocked(key string) {
	c.evicted++
	if c.evictHook != nil {
		c.evictHook(key)
	}
}

// removeLocked is the one way an entry leaves the shard — eviction,
// invalidation and Flush all come through here. It drops the entry's
// row under every assertion it carries, so the index never names an
// entry that is gone, and frees its slot.
func (c *Cache) removeLocked(i int32) {
	s := &c.slots[i]
	for _, a := range s.asserts {
		row := c.index[a]
		// Rows grow at the end, and InvalidateAsserts removes a row's
		// entries last first, so search from the end.
		for j := len(row) - 1; j >= 0; j-- {
			if row[j] == i {
				row[j] = row[len(row)-1]
				row = row[:len(row)-1]
				break
			}
		}
		if len(row) == 0 {
			delete(c.index, a)
		} else {
			c.index[a] = row
		}
	}
	delete(c.keys, s.key)
	c.bytes -= s.size
	*s = slot{}
	c.free = append(c.free, i)
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
	removed := 0
	for _, a := range keys {
		c.revoked[a] = true
		for row := c.index[a]; len(row) > 0; row = c.index[a] {
			c.removeLocked(row[len(row)-1])
			removed++
		}
	}
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

// RevokedKeys returns the revoked assertion keys in sorted order — the
// state a rejoining instance pulls to catch up with fleet recovery.
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
	out := make([]Entry, 0, len(c.keys))
	for i := range c.slots {
		if s := &c.slots[i]; s.size > 0 {
			out = append(out, Entry{Key: s.key, Value: s.value, Asserts: s.asserts})
		}
	}
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
	return len(c.keys)
}

// Flush drops all entries (and the index) but keeps the revoked set:
// forgetting answers is always safe, forgetting revocations never is.
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.slots) - 1; i >= 0; i-- {
		if c.slots[i].size > 0 {
			c.removeLocked(int32(i))
		}
	}
	c.slots, c.free, c.hand = nil, nil, 0
}

// Stats snapshots the shard's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return CacheStats{
		Entries:     len(c.keys),
		Revoked:     len(c.revoked),
		Hits:        c.hits,
		Misses:      c.misses,
		Puts:        c.puts,
		Rejects:     c.rejects,
		Invalidated: c.invalidated,
		Bytes:       c.bytes,
		Budget:      c.budget,
		Evicted:     c.evicted,
	}
}
