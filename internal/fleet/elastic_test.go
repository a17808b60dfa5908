package fleet

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestRingBoundedMovement pins the consistent-hashing property the live
// cutover design relies on: adding one node to a ring moves only the
// segments that node acquires (every changed key's new owner is the
// added node), and removing one node moves only the segments it owned
// (every changed key's old owner is the removed node). Randomized node
// sets, vnode counts, and key samples across many seeds.
func TestRingBoundedMovement(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	pool := make([]string, 20)
	for i := range pool {
		pool[i] = fmt.Sprintf("node%02d", i)
	}
	for trial := 0; trial < 120; trial++ {
		perm := rng.Perm(len(pool))
		n := 1 + rng.Intn(8)
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = pool[perm[i]]
		}
		extra := pool[perm[n]]
		vnodes := 0
		if rng.Intn(2) == 1 {
			vnodes = 1 + rng.Intn(96)
		}

		without := NewRing(nodes, vnodes)
		with := NewRing(append(append([]string(nil), nodes...), extra), vnodes)

		moved, total := 0, 240
		for i := 0; i < total; i++ {
			key := fmt.Sprintf("k|%d|%d|%d", trial, i, rng.Int63())
			before, after := without.Owner(key), with.Owner(key)
			if before == after {
				continue
			}
			moved++
			// Join direction: a key may only move TO the new node.
			if after != extra {
				t.Fatalf("trial %d: adding %s moved %q from %s to %s (unrelated segment moved)",
					trial, extra, key, before, after)
			}
			// Leave direction is the same comparison read backwards: a key
			// may only move FROM the departing node.
		}
		if n >= 4 && moved > total/2 {
			// Not a tight bound, just a sanity rail: one node joining an
			// n-node ring should claim roughly 1/(n+1) of the keyspace,
			// nowhere near half.
			t.Fatalf("trial %d: %d/%d keys moved when %s joined %d nodes", trial, moved, total, extra, n)
		}
	}
}

// TestTierPeerTimeoutFailOpen: a peer that accepts the connection and
// then stalls must not block the query path — the lookup degrades to a
// local miss within the per-op budget and is counted in peer_timeouts.
func TestTierPeerTimeoutFailOpen(t *testing.T) {
	stall := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall // hold the request until teardown
	}))
	defer ts.Close()
	defer close(stall)

	tier := NewTier(TierConfig{
		Self:      "a",
		Peers:     map[string]string{"b": ts.URL},
		OpTimeout: 50 * time.Millisecond,
	})
	defer tier.Close()

	key := ""
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("dig|scaf|fp|probe%d", i)
		if tier.Owner(k) == "b" {
			key = k
		}
	}
	start := time.Now()
	if _, ok := tier.Get(key); ok {
		t.Fatal("stalled peer produced a hit")
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("lookup blocked %v on a stalled peer; op budget was 50ms", el)
	}
	st := tier.Stats()
	if st.PeerTimeouts < 1 {
		t.Fatalf("peer_timeouts = %d, want >= 1", st.PeerTimeouts)
	}
	if st.Misses < 1 {
		t.Fatalf("misses = %d, want >= 1 (timeout must read as a miss)", st.Misses)
	}
}

// TestTierLiveMembership: AddPeer makes a running tier fetch remote hits
// from a node it was not born knowing, and RemovePeer returns the moved
// segments to self-ownership. Exercised both directly and through the
// members endpoint the router drives.
func TestTierLiveMembership(t *testing.T) {
	remote := NewCache(0)
	mux := http.NewServeMux()
	(&Handler{Cache: remote}).Register(mux, "/fleet/")
	ts := httptest.NewServer(mux)
	defer ts.Close()

	tier := NewTier(TierConfig{Self: "a"})
	defer tier.Close()
	if got := tier.Owner("dig|s|f|anything"); got != "a" {
		t.Fatalf("peerless tier owner = %s, want a", got)
	}

	// Drive AddPeer the way the router does: over the members endpoint.
	selfMux := http.NewServeMux()
	(&Handler{Cache: tier.Local(), Tier: tier}).Register(selfMux, "/fleet/")
	selfTS := httptest.NewServer(selfMux)
	defer selfTS.Close()
	cl := NewClient(selfTS.URL, 0, nil)
	resp, err := cl.Members(MembersRequest{Add: map[string]string{"b": ts.URL}})
	if err != nil {
		t.Fatalf("members push: %v", err)
	}
	if len(resp.Nodes) != 2 {
		t.Fatalf("post-join nodes = %v, want [a b]", resp.Nodes)
	}

	key := ""
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("dig|scaf|fp|q%d", i)
		if tier.Owner(k) == "b" {
			key = k
		}
	}
	remote.Put(Entry{Key: key, Value: []byte("v")})
	if v, ok := tier.Get(key); !ok || string(v) != "v" {
		t.Fatalf("remote hit after AddPeer: ok=%v v=%q", ok, v)
	}
	if st := tier.Stats(); st.RemoteHits != 1 {
		t.Fatalf("remote_hits = %d, want 1", st.RemoteHits)
	}

	if _, err := cl.Members(MembersRequest{Remove: []string{"b"}}); err != nil {
		t.Fatalf("members remove: %v", err)
	}
	if got := tier.Owner("dig|s|f|back-to-self"); got != "a" {
		t.Fatalf("post-leave owner = %s, want a", got)
	}
	// Idempotence: re-adding and re-removing are no-ops, not errors.
	tier.AddPeer("a", "http://self") // self: ignored
	tier.RemovePeer("never-joined")  // unknown: ignored
	if n := tier.Stats().Nodes; len(n) != 1 || n[0] != "a" {
		t.Fatalf("membership after no-ops = %v, want [a]", n)
	}
}
