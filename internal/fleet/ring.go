// Package fleet implements the cross-instance tier of scaf-serve: a
// consistent-hash ring for placement, a wire-level cache shard holding
// canonical entries as opaque bytes, a Tier that is one instance's
// handle on its shard, and Transport, the pooled HTTP/1.1 round tripper
// of every fleet-internal client (the router's hops to its backends,
// and the load generator's and the oracle's requests to a router),
// which does each round trip on the calling goroutine.
//
// The ring has two users, both in internal/server: the router, which
// places every read of a loop on one backend, and segment export, which
// works out that placement on a backend when a membership change moves
// loops. A tier keeps no ring and knows no other instance: it reads and
// publishes its own shard, and the router carries recovery events from
// one backend to the others.
//
// The package is deliberately a leaf: it depends only on the standard
// library and moves opaque keys/bytes, so internal/server (which already
// imports internal/bench and internal/core) can layer codecs on top
// without import cycles. Soundness comes from what callers put in, not
// from this package: only canonical entries (complete, top-level,
// untainted resolutions — identical bytes no matter which instance
// produced them) may be published, and entry keys embed the producer's
// program digest and quarantine fingerprint so hits only occur between
// sessions in identical recovery states.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is an immutable consistent-hash ring. Each node is projected onto
// the ring at vnodes points (FNV-1a of "node#i"); a key is owned by the
// first point clockwise from its own hash. Immutability keeps placement a
// pure function of (nodes, vnodes, key) — the router and a backend
// exporting a segment compute identical owners with no coordination.
type Ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node string
}

// DefaultVNodes balances distribution evenness against ring size; with
// 64 points per node, a 4-node ring keeps per-node load within a few
// percent of uniform.
const DefaultVNodes = 64

// NewRing builds a ring over nodes. vnodes <= 0 selects DefaultVNodes.
// Node order does not matter; the ring is identical for any permutation.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{}
	for _, n := range nodes {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on node so equal hashes (vanishingly rare) still
		// order deterministically across instances.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owner returns the node owning key. Panics on an empty ring — a fleet
// with zero members is a construction error, not a runtime state.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		panic("fleet: Owner on empty ring")
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// hashKey is FNV-1a 64 — stable across Go versions and architectures,
// which placement requires (maphash would differ per process).
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
