package fleet

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TierConfig configures one instance's view of the fleet.
type TierConfig struct {
	// Self is this instance's node ID (must not appear in Peers).
	Self string
	// Peers maps the other instances' node IDs to their base URLs.
	Peers map[string]string
	// Timeout bounds each peer RPC (0 = DefaultPeerTimeout).
	Timeout time.Duration
	// AutoFlush, when positive, drains pending publications to peers on
	// this period from a background goroutine. Zero means publications
	// accumulate until an explicit Flush — what deterministic tests want.
	AutoFlush time.Duration
	// OpTimeout bounds each remote lookup Get issues, which the server's
	// /analyze loop lookaside does before it resolves a loop
	// (0 = DefaultOpTimeout). Tighter than Timeout on purpose: a remote
	// hit is an optimization, and a peer slow enough to miss this budget
	// must degrade to a local miss rather than stall the request it was
	// supposed to accelerate. Timed-out lookups count in peer_timeouts.
	OpTimeout time.Duration
	// CacheBytes is the local shard's byte budget (0 = DefaultCacheBytes).
	CacheBytes int64
}

// DefaultMaxBatch caps entries per publication batch, bounding one
// publication RPC to a size that stays well under maxPeerBody even with
// large wire values; an overfull pending queue triggers an inline drain.
const DefaultMaxBatch = 256

// DefaultOpTimeout is the remote-lookup budget of Get: long enough
// for a loopback or rack-local RTT, far shorter than the answer would
// take to recompute — the only regime where blocking is worth it.
const DefaultOpTimeout = 500 * time.Millisecond

// Tier is one instance's handle on the fleet cache: a local shard, a
// ring placing every key on its home node, and clients to the peers.
//
// Reads are local-first: the local shard covers self-owned keys and
// previously fetched remote entries, so each remote entry costs at most
// one RTT per instance. A remote hit whose predicates are locally revoked
// is discarded — the local recovery state stays authoritative, exactly as
// core.SharedCache's Revoker does for the in-process cache.
//
// Writes install locally and, for keys homed elsewhere, enqueue to the
// owner; batches drain asynchronously (AutoFlush) or on Flush. Dropped
// batches (peer down) only cost future hits — entries are a cache.
//
// Recovery is the one synchronous path: BroadcastRecovery applies locally
// and then POSTs to every peer before returning, so a caller that
// responds to its client after broadcasting knows the whole fleet has
// revoked the assertion.
type Tier struct {
	self        string
	local       *Cache
	peerTimeout time.Duration
	opTimeout   time.Duration

	// pmu guards the membership view (ring + peer clients), which is
	// mutable since live join/leave: AddPeer/RemovePeer swap both under
	// the write lock, every other path reads them under the read lock. A
	// stale view is sound — placement only decides who computes/caches an
	// answer, and entry keys are self-validating — so readers never block
	// on a membership change longer than the swap itself.
	pmu   sync.RWMutex
	ring  *Ring
	peers map[string]*Client

	// transport carries every peer client's requests, so the tier owns
	// one connection pool and Close drops it in one call.
	transport *http.Transport

	mu      sync.Mutex
	pending map[string][]Entry

	// flushMu serializes Flush, which makes it a barrier: a Flush that
	// races the auto-flusher's waits for the batches that one already
	// took out of pending, instead of finding pending empty and
	// returning while they are still in flight.
	flushMu sync.Mutex

	localHits, remoteHits, misses    atomic.Int64
	remoteErrors, published, batches atomic.Int64
	peerTimeouts, dials              atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
}

// TierStats snapshots the tier's counters.
type TierStats struct {
	Self         string     `json:"self"`
	Nodes        []string   `json:"nodes"`
	LocalHits    int64      `json:"local_hits"`
	RemoteHits   int64      `json:"remote_hits"`
	Misses       int64      `json:"misses"`
	RemoteErrors int64      `json:"remote_errors"`
	PeerTimeouts int64      `json:"peer_timeouts"`
	Published    int64      `json:"published"`
	Batches      int64      `json:"batches"`
	Dials        int64      `json:"dials"`
	Local        CacheStats `json:"local"`
}

// NewTier builds a tier. With no peers it degenerates to a purely local
// shard — every key is self-owned and no goroutine is started.
func NewTier(cfg TierConfig) *Tier {
	opTimeout := cfg.OpTimeout
	if opTimeout <= 0 {
		opTimeout = DefaultOpTimeout
	}
	t := &Tier{
		self:        cfg.Self,
		local:       NewCache(cfg.CacheBytes),
		peerTimeout: cfg.Timeout,
		opTimeout:   opTimeout,
		peers:       make(map[string]*Client, len(cfg.Peers)),
		pending:     make(map[string][]Entry),
		stop:        make(chan struct{}),
	}
	t.transport = NewTransport(&t.dials)
	nodes := []string{cfg.Self}
	for id, base := range cfg.Peers {
		nodes = append(nodes, id)
		t.peers[id] = NewClient(base, cfg.Timeout, t.transport)
	}
	t.ring = NewRing(nodes, 0)
	// The flusher starts whenever a period is set — not only when peers
	// exist at boot — because live membership can add the first peer long
	// after construction.
	if cfg.AutoFlush > 0 {
		t.done.Add(1)
		go t.flushLoop(cfg.AutoFlush)
	}
	return t
}

// Local exposes the instance's shard — the Handler serves it to peers.
func (t *Tier) Local() *Cache { return t.local }

// Self returns this instance's node ID.
func (t *Tier) Self() string { return t.self }

// Owner returns the node that homes key.
func (t *Tier) Owner(key string) string {
	t.pmu.RLock()
	defer t.pmu.RUnlock()
	return t.ring.Owner(key)
}

// AddPeer admits a peer into this instance's membership view: a client
// is minted for it and the ring is rebuilt to include it. Idempotent —
// re-adding a known peer (or self) is a no-op, so the router can
// broadcast membership without tracking who already knows.
func (t *Tier) AddPeer(id, base string) {
	if id == t.self {
		return
	}
	t.pmu.Lock()
	defer t.pmu.Unlock()
	if _, ok := t.peers[id]; ok {
		return
	}
	t.peers[id] = NewClient(base, t.peerTimeout, t.transport)
	t.ring = NewRing(append(t.ring.Nodes(), id), 0)
}

// RemovePeer removes a peer from the membership view and rebuilds the
// ring without it. Pending publications bound for it are dropped (they
// are a cache; the entries stay served from the local shard). Idempotent.
// The transport cannot drop one host's idle connections, so it drops
// all of them: none stays parked on the departed peer, and the other
// peers' connections are redialed as requests need them.
func (t *Tier) RemovePeer(id string) {
	if id == t.self {
		return
	}
	t.pmu.Lock()
	if _, ok := t.peers[id]; !ok {
		t.pmu.Unlock()
		return
	}
	delete(t.peers, id)
	nodes := t.ring.Nodes()
	for i, n := range nodes {
		if n == id {
			nodes = append(nodes[:i], nodes[i+1:]...)
			break
		}
	}
	t.ring = NewRing(nodes, 0)
	t.pmu.Unlock()
	t.mu.Lock()
	delete(t.pending, id)
	t.mu.Unlock()
	t.transport.CloseIdleConnections()
}

// Get looks key up: local shard first, then — if the key is homed on a
// peer — one RPC to the owner. Remote hits are installed locally so the
// next ask is free. A non-nil check is Cache.Get's: a local value is
// checked on its first hit, and a peer's value is checked before it is
// installed, so neither a bad local entry nor a bad reply is served or
// kept. Returns the canonical bytes and whether they were found; ok=false
// covers true misses, peer errors, values that fail the check, and remote
// entries blocked by local revocations alike (all are just misses to the
// caller).
func (t *Tier) Get(key string, check func([]byte) bool) ([]byte, bool) {
	if v, ok := t.local.Get(key, check); ok {
		t.localHits.Add(1)
		return v, true
	}
	t.pmu.RLock()
	owner := t.ring.Owner(key)
	p := t.peers[owner]
	t.pmu.RUnlock()
	if owner == t.self || p == nil {
		t.misses.Add(1)
		return nil, false
	}
	// Fail-open: the lookup gets a hard per-op budget, independent of the
	// client's transport timeout. A peer that answers slower than this is
	// indistinguishable from one that is down — the lookup records a
	// local miss and the caller recomputes rather than waiting.
	ctx, cancel := context.WithTimeout(context.Background(), t.opTimeout)
	defer cancel()
	entries, err := p.GetCtx(ctx, []string{key})
	if err != nil {
		if ctx.Err() != nil {
			t.peerTimeouts.Add(1)
		}
		t.remoteErrors.Add(1)
		t.misses.Add(1)
		return nil, false
	}
	for _, e := range entries {
		if e.Key != key {
			continue
		}
		if t.local.AnyRevoked(e.Asserts) {
			// The peer hasn't seen a revocation we have; serving its
			// entry would break the guaranteed-miss rule.
			t.misses.Add(1)
			return nil, false
		}
		if check != nil && !check(e.Value) {
			t.misses.Add(1)
			return nil, false
		}
		t.local.put(e, check != nil)
		t.remoteHits.Add(1)
		return e.Value, true
	}
	t.misses.Add(1)
	return nil, false
}

// Put publishes a canonical entry: it lands in the local shard
// immediately and, when the key is homed on a peer, is queued for that
// owner's next batch.
func (t *Tier) Put(key string, asserts []string, value []byte) {
	e := Entry{Key: key, Value: value, Asserts: asserts}
	t.local.Put(e)
	t.pmu.RLock()
	owner := t.ring.Owner(key)
	_, known := t.peers[owner]
	t.pmu.RUnlock()
	if owner == t.self || !known {
		return
	}
	t.mu.Lock()
	t.pending[owner] = append(t.pending[owner], e)
	over := len(t.pending[owner]) >= DefaultMaxBatch
	t.mu.Unlock()
	if over {
		t.Flush()
	}
}

// Flush synchronously drains all pending publication batches: when it
// returns, every batch queued before the call has been delivered or
// dropped, including one the auto-flusher was already sending. Peers
// that error lose their batch — the entries remain served from the
// local shard, and canonical entries can always be re-derived.
func (t *Tier) Flush() {
	t.flushMu.Lock()
	defer t.flushMu.Unlock()
	t.mu.Lock()
	batches := t.pending
	t.pending = make(map[string][]Entry)
	t.mu.Unlock()
	ids := make([]string, 0, len(batches))
	for id := range batches {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		es := batches[id]
		if len(es) == 0 {
			continue
		}
		t.pmu.RLock()
		p := t.peers[id]
		t.pmu.RUnlock()
		if p == nil {
			continue // peer left between enqueue and drain
		}
		if _, err := p.Put(es); err != nil {
			t.remoteErrors.Add(1)
			continue
		}
		t.published.Add(int64(len(es)))
		t.batches.Add(1)
	}
}

func (t *Tier) flushLoop(period time.Duration) {
	defer t.done.Done()
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			t.Flush()
		case <-t.stop:
			t.Flush()
			return
		}
	}
}

// ApplyRecovery applies a recovery event to the local shard only —
// what the Handler does when a peer broadcasts to us.
func (t *Tier) ApplyRecovery(req RecoveryRequest) int {
	return t.local.InvalidateAsserts(req.Asserts)
}

// BroadcastRecovery applies req locally, then replicates it to every
// peer synchronously (sorted order, so failures are deterministic to
// attribute). It returns the IDs of peers that could not be reached;
// callers decide whether that is fatal. Because the revoked set is
// monotone and keys embed quarantine fingerprints, a missed peer can
// only serve stale entries to sessions still in the old recovery state —
// never to one that has observed the violation.
func (t *Tier) BroadcastRecovery(req RecoveryRequest) []string {
	t.ApplyRecovery(req)
	if req.Origin == "" {
		req.Origin = t.self
	}
	var failed []string
	for _, pr := range t.peerClients() {
		if err := pr.client.Recovery(req); err != nil {
			t.remoteErrors.Add(1)
			failed = append(failed, pr.id)
		}
	}
	return failed
}

// peerRef pairs a peer's ID with its client, snapshotted outside pmu so
// RPC time never holds the membership lock.
type peerRef struct {
	id     string
	client *Client
}

func (t *Tier) peerClients() []peerRef {
	t.pmu.RLock()
	out := make([]peerRef, 0, len(t.peers))
	for id, p := range t.peers {
		out = append(out, peerRef{id: id, client: p})
	}
	t.pmu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// SyncState pulls every reachable peer's revoked set and applies it
// locally — how a rejoining instance catches up on recovery events it
// missed while down.
func (t *Tier) SyncState() error {
	var firstErr error
	for _, pr := range t.peerClients() {
		st, err := pr.client.State()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			t.remoteErrors.Add(1)
			continue
		}
		t.local.InvalidateAsserts(st.Revoked)
	}
	return firstErr
}

// Stats snapshots the tier's counters, including the local shard's.
func (t *Tier) Stats() TierStats {
	t.pmu.RLock()
	nodes := t.ring.Nodes()
	t.pmu.RUnlock()
	return TierStats{
		Self:         t.self,
		Nodes:        nodes,
		LocalHits:    t.localHits.Load(),
		RemoteHits:   t.remoteHits.Load(),
		Misses:       t.misses.Load(),
		RemoteErrors: t.remoteErrors.Load(),
		PeerTimeouts: t.peerTimeouts.Load(),
		Published:    t.published.Load(),
		Batches:      t.batches.Load(),
		Dials:        t.dials.Load(),
		Local:        t.local.Stats(),
	}
}

// Close stops the auto-flush goroutine after a final drain. Idempotent
// and safe under concurrent callers: every Close returns only after the
// teardown has completed exactly once (graceful shutdown can reach it
// from more than one path).
func (t *Tier) Close() {
	t.stopOnce.Do(func() {
		close(t.stop)
		t.done.Wait()
		// Drop pooled peer connections so peers shutting down concurrently
		// don't wait out http.Server.Shutdown's StateNew grace period on a
		// spare connection we left parked there.
		t.transport.CloseIdleConnections()
	})
}
