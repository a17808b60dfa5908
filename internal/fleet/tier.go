package fleet

import (
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
	// CacheBytes is the local shard's byte budget (0 = DefaultCacheBytes).
	CacheBytes int64
}

// Tier is one instance's handle on the fleet cache: a local shard and
// clients to the peers.
//
// Reads and writes touch the local shard only. The router places every
// read of a loop on one backend, so that backend's shard is where the
// loop's entry is published and found; a membership change streams each
// entry whose placement moves from its old owner to its new one.
//
// Recovery state is the one thing the peers exchange: BroadcastRecovery
// applies locally and then POSTs to every peer before returning, so a
// caller that responds to its client after broadcasting knows the whole
// fleet has revoked the assertion, and SyncState pulls the peers'
// revoked sets.
type Tier struct {
	self        string
	local       *Cache
	peerTimeout time.Duration

	// pmu guards the peer clients, which are mutable since live
	// join/leave: AddPeer/RemovePeer change them under the write lock,
	// every other path reads them under the read lock.
	pmu   sync.RWMutex
	peers map[string]*Client

	// transport carries every peer client's requests, so the tier owns
	// one connection pool and Close drops it in one call.
	transport *http.Transport

	localHits, misses, remoteErrors, dials atomic.Int64
}

// TierStats snapshots the tier's counters. RemoteHits is always 0: a
// tier reads its local shard only.
type TierStats struct {
	Self         string     `json:"self"`
	Nodes        []string   `json:"nodes"`
	LocalHits    int64      `json:"local_hits"`
	RemoteHits   int64      `json:"remote_hits"`
	Misses       int64      `json:"misses"`
	RemoteErrors int64      `json:"remote_errors"`
	Dials        int64      `json:"dials"`
	Local        CacheStats `json:"local"`
}

// NewTier builds a tier. With no peers it is a purely local shard.
func NewTier(cfg TierConfig) *Tier {
	t := &Tier{
		self:        cfg.Self,
		local:       NewCache(cfg.CacheBytes),
		peerTimeout: cfg.Timeout,
		peers:       make(map[string]*Client, len(cfg.Peers)),
	}
	t.transport = NewTransport(&t.dials)
	for id, base := range cfg.Peers {
		t.peers[id] = NewClient(base, cfg.Timeout, t.transport)
	}
	return t
}

// Local exposes the instance's shard — the Handler serves its recovery
// state to peers.
func (t *Tier) Local() *Cache { return t.local }

// AddPeer admits a peer into this instance's membership view. Idempotent
// — re-adding a known peer (or self) is a no-op, so the router can
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
}

// RemovePeer removes a peer from the membership view. Idempotent.
// The transport cannot drop one host's idle connections, so it drops
// all of them: none stays parked on the departed peer, and the other
// peers' connections are redialed as requests need them.
func (t *Tier) RemovePeer(id string) {
	t.pmu.Lock()
	_, ok := t.peers[id]
	delete(t.peers, id)
	t.pmu.Unlock()
	if ok {
		t.transport.CloseIdleConnections()
	}
}

// Get looks key up in the local shard. A non-nil check is Cache.Get's:
// a value is checked on its first hit, and one that fails is a miss.
// Returns the canonical bytes and whether they were found.
func (t *Tier) Get(key string, check func([]byte) bool) ([]byte, bool) {
	if v, ok := t.local.Get(key, check); ok {
		t.localHits.Add(1)
		return v, true
	}
	t.misses.Add(1)
	return nil, false
}

// Put publishes a canonical entry into the local shard.
func (t *Tier) Put(key string, asserts []string, value []byte) {
	t.local.Put(Entry{Key: key, Value: value, Asserts: asserts})
}

// BroadcastRecovery applies req locally, then replicates it to every
// peer synchronously (sorted order, so failures are deterministic to
// attribute). It returns the IDs of peers that could not be reached;
// callers decide whether that is fatal. Because the revoked set is
// monotone and keys embed quarantine fingerprints, a missed peer can
// only serve stale entries to sessions still in the old recovery state —
// never to one that has observed the violation.
func (t *Tier) BroadcastRecovery(req RecoveryRequest) []string {
	t.local.InvalidateAsserts(req.Asserts)
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
// Nodes lists self and the peers in sorted order.
func (t *Tier) Stats() TierStats {
	nodes := []string{t.self}
	for _, pr := range t.peerClients() {
		nodes = append(nodes, pr.id)
	}
	sort.Strings(nodes)
	return TierStats{
		Self:         t.self,
		Nodes:        nodes,
		LocalHits:    t.localHits.Load(),
		Misses:       t.misses.Load(),
		RemoteErrors: t.remoteErrors.Load(),
		Dials:        t.dials.Load(),
		Local:        t.local.Stats(),
	}
}

// Close drops pooled peer connections, so peers shutting down
// concurrently don't wait out http.Server.Shutdown's StateNew grace
// period on a spare connection we left parked there. Idempotent and
// safe under concurrent callers; the shard keeps serving.
func (t *Tier) Close() { t.transport.CloseIdleConnections() }
