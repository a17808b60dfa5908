package fleet

import (
	"fmt"
	"math/rand"
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
