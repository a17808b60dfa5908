package fleet

// TierConfig configures one instance's cache tier.
type TierConfig struct {
	// Self is this instance's node ID.
	Self string
	// CacheBytes is the local shard's byte budget (0 = DefaultCacheBytes).
	CacheBytes int64
}

// Tier is one instance's handle on the fleet cache: its local shard.
//
// Reads and writes touch the local shard only. The router places every
// read of a loop on one backend, so that backend's shard is where the
// loop's entry is published and found; a membership change streams each
// entry whose placement moves from its old owner to its new one. A tier
// knows no other instance: the router carries recovery events between
// backends.
type Tier struct {
	self  string
	local *Cache
}

// TierStats snapshots the tier's counters. LocalHits and Misses are the
// shard's own Hits and Misses. RemoteHits is always 0: a tier reads its
// local shard only.
type TierStats struct {
	Self       string     `json:"self"`
	LocalHits  int64      `json:"local_hits"`
	RemoteHits int64      `json:"remote_hits"`
	Misses     int64      `json:"misses"`
	Local      CacheStats `json:"local"`
}

// NewTier builds a tier over a fresh local shard.
func NewTier(cfg TierConfig) *Tier {
	return &Tier{self: cfg.Self, local: NewCache(cfg.CacheBytes)}
}

// Local exposes the instance's shard.
func (t *Tier) Local() *Cache { return t.local }

// Get looks key up in the local shard. A non-nil check is Cache.Get's:
// a value is checked on its first hit, and one that fails is a miss.
// Returns the canonical bytes and whether they were found.
func (t *Tier) Get(key string, check func([]byte) bool) ([]byte, bool) {
	return t.local.Get(key, check)
}

// Put publishes a canonical entry into the local shard.
func (t *Tier) Put(key string, asserts []string, value []byte) {
	t.local.Put(Entry{Key: key, Value: value, Asserts: asserts})
}

// Stats snapshots the tier's counters, including the local shard's.
func (t *Tier) Stats() TierStats {
	local := t.local.Stats()
	return TierStats{Self: t.self, LocalHits: local.Hits, Misses: local.Misses, Local: local}
}
