package fleet

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
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

// TestTierLiveMembership: AddPeer makes a running tier broadcast
// recovery to a node it was not born knowing, and RemovePeer stops it.
// Exercised both directly and through the members endpoint the router
// drives.
func TestTierLiveMembership(t *testing.T) {
	var got []RecoveryRequest
	var mu sync.Mutex
	mux := http.NewServeMux()
	(&Handler{Cache: NewCache(0), OnRecovery: func(r RecoveryRequest) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	}}).Register(mux, "/fleet/")
	ts := httptest.NewServer(mux)
	defer ts.Close()
	received := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(got)
	}

	tier := NewTier(TierConfig{Self: "a"})
	defer tier.Close()
	if failed := tier.BroadcastRecovery(RecoveryRequest{Asserts: []string{"r0"}}); len(failed) != 0 || received() != 0 {
		t.Fatalf("peerless broadcast: failed %v, %d received", failed, received())
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
	if failed := tier.BroadcastRecovery(RecoveryRequest{Asserts: []string{"r1"}}); len(failed) != 0 {
		t.Fatalf("broadcast after AddPeer failed to reach %v", failed)
	}
	if received() != 1 || got[0].Origin != "a" || got[0].Asserts[0] != "r1" {
		t.Fatalf("the added peer received %+v, want r1 from a", got)
	}

	if _, err := cl.Members(MembersRequest{Remove: []string{"b"}}); err != nil {
		t.Fatalf("members remove: %v", err)
	}
	if failed := tier.BroadcastRecovery(RecoveryRequest{Asserts: []string{"r2"}}); len(failed) != 0 || received() != 1 {
		t.Fatalf("broadcast after RemovePeer: failed %v, the removed peer received %d", failed, received())
	}
	// Idempotence: re-adding and re-removing are no-ops, not errors.
	tier.AddPeer("a", "http://self") // self: ignored
	tier.RemovePeer("never-joined")  // unknown: ignored
	if n := tier.Stats().Nodes; len(n) != 1 || n[0] != "a" {
		t.Fatalf("membership after no-ops = %v, want [a]", n)
	}
}
