package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
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

func TestRingOwnerN(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"}, 8)
	got := r.OwnerN("some-key", 3)
	if len(got) != 3 {
		t.Fatalf("OwnerN returned %v, want 3 distinct nodes", got)
	}
	seen := map[string]bool{}
	for _, n := range got {
		if seen[n] {
			t.Fatalf("OwnerN returned duplicate node in %v", got)
		}
		seen[n] = true
	}
	if got[0] != r.Owner("some-key") {
		t.Errorf("OwnerN[0] = %s, want primary owner %s", got[0], r.Owner("some-key"))
	}
	if more := r.OwnerN("some-key", 99); len(more) != 3 {
		t.Errorf("OwnerN(99) = %v, want clamped to 3 nodes", more)
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
	if v, ok := c.Get("k1"); !ok || string(v) != "v1" {
		t.Fatalf("Get(k1) = %q,%v want v1", v, ok)
	}
	c.Put(Entry{Key: "k2", Value: []byte("v2"), Asserts: []string{"a1", "a2"}})
	c.Put(Entry{Key: "k3", Value: []byte("v3")})

	if n := c.InvalidateAsserts([]string{"a1"}); n != 2 {
		t.Fatalf("invalidated %d entries, want 2 (k1, k2)", n)
	}
	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 survived invalidation of its predicate")
	}
	if _, ok := c.Get("k3"); !ok {
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

// peerHarness boots a Handler-backed httptest server for a shard.
func peerHarness(t *testing.T, c *Cache, onRecovery func(RecoveryRequest)) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	(&Handler{Cache: c, OnRecovery: onRecovery}).Register(mux, "/fleet/")
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestPeerProtocolRoundTrip(t *testing.T) {
	shard := NewCache(0)
	var recovered []RecoveryRequest
	ts := peerHarness(t, shard, func(r RecoveryRequest) { recovered = append(recovered, r) })
	cl := NewClient(ts.URL, time.Second, nil)

	n, err := cl.Put([]Entry{
		{Key: "k1", Value: []byte("v1"), Asserts: []string{"a1"}},
		{Key: "k2", Value: []byte("v2")},
	})
	if err != nil || n != 2 {
		t.Fatalf("Put = %d,%v want 2 inserted", n, err)
	}
	got, err := cl.Get([]string{"k1", "missing", "k2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Key != "k1" || string(got[0].Value) != "v1" || got[1].Key != "k2" {
		t.Fatalf("Get = %+v, want k1,k2 in order", got)
	}
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
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Puts != 2 || stats.Invalidated != 1 {
		t.Fatalf("Stats = %+v, want 2 puts and 1 invalidated", stats)
	}
}

func TestTierRemoteHitAndLocalInstall(t *testing.T) {
	// Build explicitly so each handler serves its tier's local shard.
	muxA, muxB := http.NewServeMux(), http.NewServeMux()
	tsA, tsB := httptest.NewServer(muxA), httptest.NewServer(muxB)
	defer tsA.Close()
	defer tsB.Close()
	tierA := NewTier(TierConfig{Self: "A", Peers: map[string]string{"B": tsB.URL}})
	tierB := NewTier(TierConfig{Self: "B", Peers: map[string]string{"A": tsA.URL}})
	defer tierA.Close()
	defer tierB.Close()
	(&Handler{Cache: tierA.Local()}).Register(muxA, "/fleet/")
	(&Handler{Cache: tierB.Local()}).Register(muxB, "/fleet/")

	// Find a key homed on B so A's Put queues a publication.
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("probe-%d", i)
		if tierA.Owner(key) == "B" {
			break
		}
	}
	tierA.Put(key, []string{"as1"}, []byte("payload"))
	tierA.Flush()

	if _, ok := tierB.local.Get(key); !ok {
		t.Fatal("published entry did not land on owner B")
	}
	// B reads its own shard (local hit); A reads via B once, then locally.
	if v, ok := tierB.Get(key); !ok || string(v) != "payload" {
		t.Fatalf("B.Get = %q,%v", v, ok)
	}
	// A installed locally at Put time, so its read is a local hit too.
	if v, ok := tierA.Get(key); !ok || string(v) != "payload" {
		t.Fatalf("A.Get = %q,%v", v, ok)
	}

	// A cold restart of A (empty local shard, same ring) fetches the
	// B-homed entry remotely once, then serves re-asks locally.
	tierA2 := NewTier(TierConfig{Self: "A", Peers: map[string]string{"B": tsB.URL}})
	defer tierA2.Close()
	if v, ok := tierA2.Get(key); !ok || string(v) != "payload" {
		t.Fatalf("cold A2 remote Get = %q,%v", v, ok)
	}
	if s := tierA2.Stats(); s.RemoteHits != 1 {
		t.Fatalf("A2 stats = %+v, want 1 remote hit", s)
	}
	if v, ok := tierA2.Get(key); !ok || string(v) != "payload" {
		t.Fatalf("A2 re-Get = %q,%v", v, ok)
	}
	if s := tierA2.Stats(); s.LocalHits != 1 {
		t.Fatalf("A2 stats after re-get = %+v, want the re-ask served locally", s)
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
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("pred-%d", i)
		if tierA.Owner(key) == "B" {
			break
		}
	}
	tierA.Put(key, []string{"bad"}, []byte("speculative"))
	tierA.Flush()
	if _, ok := tierB.Get(key); !ok {
		t.Fatal("setup: entry missing on B")
	}

	// Violation observed on A: broadcast must revoke on B before returning.
	if failed := tierA.BroadcastRecovery(RecoveryRequest{Asserts: []string{"bad"}}); len(failed) != 0 {
		t.Fatalf("broadcast failed to reach %v", failed)
	}
	if _, ok := tierB.Get(key); ok {
		t.Fatal("B served an entry predicated on a fleet-revoked assertion")
	}
	if _, ok := tierA.Get(key); ok {
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
	tierA.Flush()
	if _, ok := tierB.Get(key); ok {
		t.Fatal("revoked entry resurrected after republish")
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

func TestTierPeerDownDegradesToMiss(t *testing.T) {
	tier := NewTier(TierConfig{
		Self:    "A",
		Peers:   map[string]string{"B": "http://127.0.0.1:1"}, // nothing listens
		Timeout: 200 * time.Millisecond,
	})
	defer tier.Close()
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("down-%d", i)
		if tier.Owner(key) == "B" {
			break
		}
	}
	if _, ok := tier.Get(key); ok {
		t.Fatal("hit against a dead peer")
	}
	tier.Put(key, nil, []byte("v"))
	tier.Flush() // must not hang or panic
	if failed := tier.BroadcastRecovery(RecoveryRequest{Asserts: []string{"x"}}); len(failed) != 1 || failed[0] != "B" {
		t.Fatalf("BroadcastRecovery failed peers = %v, want [B]", failed)
	}
	if s := tier.Stats(); s.RemoteErrors < 2 {
		t.Fatalf("stats = %+v, want remote errors counted", s)
	}
	// The local copy still serves.
	if v, ok := tier.Get(key); !ok || string(v) != "v" {
		t.Fatalf("local copy lost: %q,%v", v, ok)
	}
}
