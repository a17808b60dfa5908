package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRingDeterministicAndBalanced(t *testing.T) {
	a := NewRing([]string{"b2", "b0", "b1"}, 0)
	b := NewRing([]string{"b0", "b1", "b2"}, 0)
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key-%d", i)
		oa, ob := a.Owner(k), b.Owner(k)
		if oa != ob {
			t.Fatalf("placement depends on node order: %q vs %q for %s", oa, ob, k)
		}
		counts[oa]++
	}
	for n, c := range counts {
		// With 64 vnodes per node the split should be within a loose
		// factor of uniform (1000 each).
		if c < 500 || c > 1700 {
			t.Errorf("node %s owns %d/3000 keys — ring badly unbalanced", n, c)
		}
	}
}

func TestCacheFirstWriteWinsAndInvalidation(t *testing.T) {
	c := NewCache(0)
	if !c.Put(Entry{Key: "k1", Value: []byte("v1"), Asserts: []string{"a1"}}) {
		t.Fatal("first put rejected")
	}
	if c.Put(Entry{Key: "k1", Value: []byte("OTHER")}) {
		t.Fatal("duplicate key overwrote a canonical entry")
	}
	if v, ok := c.Get("k1", nil); !ok || string(v) != "v1" {
		t.Fatalf("Get(k1) = %q,%v want v1", v, ok)
	}
	c.Put(Entry{Key: "k2", Value: []byte("v2"), Asserts: []string{"a1", "a2"}})
	c.Put(Entry{Key: "k3", Value: []byte("v3")})

	if n := c.InvalidateAsserts([]string{"a1"}); n != 2 {
		t.Fatalf("invalidated %d entries, want 2 (k1, k2)", n)
	}
	if _, ok := c.Get("k1", nil); ok {
		t.Fatal("k1 survived invalidation of its predicate")
	}
	if _, ok := c.Get("k3", nil); !ok {
		t.Fatal("unpredicated k3 was dropped by invalidation")
	}
	// Monotone: a new entry predicated on a revoked assert never lands.
	if c.Put(Entry{Key: "k4", Value: []byte("v4"), Asserts: []string{"a1"}}) {
		t.Fatal("entry predicated on revoked assert was inserted")
	}
	if !c.AnyRevoked([]string{"zzz", "a1"}) {
		t.Fatal("AnyRevoked missed a revoked key")
	}
	if got := c.RevokedKeys(); !reflect.DeepEqual(got, []string{"a1"}) {
		t.Fatalf("RevokedKeys = %v, want [a1]", got)
	}
	c.Flush()
	if c.Len() != 0 {
		t.Fatal("Flush left entries behind")
	}
	if !c.AnyRevoked([]string{"a1"}) {
		t.Fatal("Flush forgot revocations — it must only drop entries")
	}
}

// peerHarness boots a Handler-backed httptest server for tier's shard,
// with the members endpoint mounted.
func peerHarness(t *testing.T, tier *Tier, onRecovery func(RecoveryRequest)) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	(&Handler{Cache: tier.Local(), OnRecovery: onRecovery, Tier: tier}).Register(mux, "/fleet/")
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestPeerProtocolRoundTrip drives each endpoint of the peer protocol
// through a Client: recovery, state and members.
func TestPeerProtocolRoundTrip(t *testing.T) {
	tier := NewTier(TierConfig{Self: "a"})
	defer tier.Close()
	shard := tier.Local()
	var recovered []RecoveryRequest
	ts := peerHarness(t, tier, func(r RecoveryRequest) { recovered = append(recovered, r) })
	cl := NewClient(ts.URL, time.Second, nil)

	shard.Put(Entry{Key: "k1", Value: []byte("v1"), Asserts: []string{"a1"}})
	shard.Put(Entry{Key: "k2", Value: []byte("v2")})
	if err := cl.Recovery(RecoveryRequest{Asserts: []string{"a1"}, Origin: "test"}); err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].Origin != "test" {
		t.Fatalf("OnRecovery saw %+v, want one event from origin test", recovered)
	}
	st, err := cl.State()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Revoked, []string{"a1"}) || st.Entries != 1 {
		t.Fatalf("State = %+v, want revoked [a1] with 1 entry left", st)
	}
	if stats := shard.Stats(); stats.Puts != 2 || stats.Invalidated != 1 {
		t.Fatalf("Stats = %+v, want 2 puts and 1 invalidated", stats)
	}
	resp, err := cl.Members(MembersRequest{Add: map[string]string{"b": "http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Nodes, []string{"a", "b"}) {
		t.Fatalf("Members = %+v, want nodes [a b]", resp)
	}
}

// TestTierReadsOnlyItsShard: Get and Put touch the tier's own shard
// only. A live peer that holds every key is never asked for one, and
// no Put is sent to it.
func TestTierReadsOnlyItsShard(t *testing.T) {
	peer := NewCache(0)
	mux := http.NewServeMux()
	(&Handler{Cache: peer}).Register(mux, "/fleet/")
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		mux.ServeHTTP(w, r)
	}))
	defer ts.Close()
	tier := NewTier(TierConfig{Self: "a", Peers: map[string]string{"b": ts.URL}})
	defer tier.Close()

	const n = 32
	for i := 0; i < n; i++ {
		peer.Put(Entry{Key: fmt.Sprintf("%d|held-by-the-peer", i), Value: []byte("theirs")})
	}
	for i := 0; i < n; i++ {
		if v, ok := tier.Get(fmt.Sprintf("%d|held-by-the-peer", i), nil); ok {
			t.Fatalf("served %q, which only the peer holds", v)
		}
		tier.Put(fmt.Sprintf("%d|own", i), nil, []byte("mine"))
		if v, ok := tier.Get(fmt.Sprintf("%d|own", i), nil); !ok || string(v) != "mine" {
			t.Fatalf("%d|own: %q,%v", i, v, ok)
		}
	}
	if c := calls.Load(); c != 0 {
		t.Fatalf("%d requests reached the peer", c)
	}
	if peer.Len() != n {
		t.Fatalf("the peer's shard holds %d entries, want its own %d", peer.Len(), n)
	}
	if s := tier.Stats(); s.LocalHits != n || s.Misses != n || s.RemoteErrors != 0 {
		t.Fatalf("stats = %+v, want %d local hits and %d misses", s, n, n)
	}
}

func TestTierRecoveryBroadcastAndGuaranteedMiss(t *testing.T) {
	muxA, muxB := http.NewServeMux(), http.NewServeMux()
	tsA, tsB := httptest.NewServer(muxA), httptest.NewServer(muxB)
	defer tsA.Close()
	defer tsB.Close()
	tierA := NewTier(TierConfig{Self: "A", Peers: map[string]string{"B": tsB.URL}})
	tierB := NewTier(TierConfig{Self: "B", Peers: map[string]string{"A": tsA.URL}})
	defer tierA.Close()
	defer tierB.Close()
	var bEvents []RecoveryRequest
	var mu sync.Mutex
	(&Handler{Cache: tierA.Local()}).Register(muxA, "/fleet/")
	(&Handler{Cache: tierB.Local(), OnRecovery: func(r RecoveryRequest) {
		mu.Lock()
		bEvents = append(bEvents, r)
		mu.Unlock()
	}}).Register(muxB, "/fleet/")

	// Seed an entry predicated on "bad" on both shards.
	const key = "pred"
	tierA.Put(key, []string{"bad"}, []byte("speculative"))
	tierB.Put(key, []string{"bad"}, []byte("speculative"))
	if _, ok := tierB.Get(key, nil); !ok {
		t.Fatal("setup: entry missing on B")
	}

	// Violation observed on A: broadcast must revoke on B before returning.
	if failed := tierA.BroadcastRecovery(RecoveryRequest{Asserts: []string{"bad"}}); len(failed) != 0 {
		t.Fatalf("broadcast failed to reach %v", failed)
	}
	if _, ok := tierB.Get(key, nil); ok {
		t.Fatal("B served an entry predicated on a fleet-revoked assertion")
	}
	if _, ok := tierA.Get(key, nil); ok {
		t.Fatal("A served an entry predicated on a revoked assertion")
	}
	mu.Lock()
	ev := len(bEvents)
	mu.Unlock()
	if ev != 1 {
		t.Fatalf("B's OnRecovery fired %d times, want 1", ev)
	}
	// Monotone: republishing the revoked entry is refused everywhere.
	tierA.Put(key, []string{"bad"}, []byte("speculative"))
	tierB.Put(key, []string{"bad"}, []byte("speculative"))
	if _, ok := tierB.Get(key, nil); ok {
		t.Fatal("revoked entry resurrected on B after republish")
	}
	if _, ok := tierA.Get(key, nil); ok {
		t.Fatal("revoked entry resurrected on A after republish")
	}

	// Rejoin path: a fresh instance pulls recovery state via SyncState.
	tierA3 := NewTier(TierConfig{Self: "A", Peers: map[string]string{"B": tsB.URL}})
	defer tierA3.Close()
	if err := tierA3.SyncState(); err != nil {
		t.Fatal(err)
	}
	if !tierA3.Local().AnyRevoked([]string{"bad"}) {
		t.Fatal("SyncState did not pull the revoked set")
	}
}

// TestTierPeerDownDegradesToMiss: a dead peer fails the broadcast it
// cannot receive; the tier counts the error and keeps serving its own
// shard.
func TestTierPeerDownDegradesToMiss(t *testing.T) {
	tier := NewTier(TierConfig{
		Self:    "A",
		Peers:   map[string]string{"B": "http://127.0.0.1:1"}, // nothing listens
		Timeout: 200 * time.Millisecond,
	})
	defer tier.Close()
	tier.Put("k", nil, []byte("v"))
	if failed := tier.BroadcastRecovery(RecoveryRequest{Asserts: []string{"x"}}); len(failed) != 1 || failed[0] != "B" {
		t.Fatalf("BroadcastRecovery failed peers = %v, want [B]", failed)
	}
	if s := tier.Stats(); s.RemoteErrors != 1 {
		t.Fatalf("stats = %+v, want the remote error counted", s)
	}
	if v, ok := tier.Get("k", nil); !ok || string(v) != "v" {
		t.Fatalf("local copy lost: %q,%v", v, ok)
	}
}
