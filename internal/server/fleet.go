package server

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"scaf"
	"scaf/internal/cfg"
	"scaf/internal/core"
)

// This file joins the daemon to a fleet: it layers a whole-loop
// wire-bytes lookaside over /analyze and revokes the assertions a
// recovery event withdraws in the instance's shard. A loop's served
// bytes are the one value the tier holds, in the shard of the backend
// the router sends every read of the loop to; single queries are
// answered there from the session's own core.SharedCaches. Backends
// never talk to each other: the router carries each session's recovery
// events to the session's other copies.
//
// Byte-identity across sessions and instances rests on three locks:
//
//   - only canonical loop results are published (deadline-clean,
//     panic-free, resolved under the key's recovery state), so a stored
//     value, whichever session published it and whichever backend
//     streamed it, is the bytes any instance serves for the loop;
//   - every fleet key is prefixed by the session's program digest and
//     quarantine fingerprint, so entries can only match between sessions
//     holding the same program in the same recovery state;
//   - recovery replication is synchronous — the router does not relay
//     the reply that carries an event until every other copy of the
//     session holds it, and marks down a backend that fails to take it
//     — and the local revoked sets stay authoritative over anything
//     restored or streamed in.

// FleetConfig joins a server to a fleet of scaf-serve instances.
type FleetConfig struct {
	// Self is this instance's node ID (e.g. "b0").
	Self string
	// Peers has no effect: backends never talk to each other, since the
	// router carries recovery events between them.
	Peers map[string]string
	// Salt folds deployment configuration the digest cannot see (extra
	// modules, build variants) into every session digest. Instances with
	// different salts never share cache entries.
	Salt string
	// Timeout has no effect: a backend sends no request to another.
	Timeout time.Duration
	// AutoFlush has no effect: a backend publishes into its own shard
	// only, so there is no publication queue to drain.
	AutoFlush time.Duration
	// CacheDir, when non-empty, makes the local shard durable: the boot
	// loads the directory's snapshot (validated end-to-end — corruption
	// degrades to misses, never wrong answers), revocations are journaled
	// the moment they happen, and a graceful drain snapshots the shard
	// back, so a rolling restart starts warm.
	CacheDir string
	// SnapshotEvery, when positive, additionally snapshots the shard on
	// this period from a background goroutine — bounding how much cache
	// warmth a crash (as opposed to a drain) can cost. Zero means
	// drain-only snapshots; revocations are durable either way.
	SnapshotEvery time.Duration
	// CacheBytes bounds the local shard's accounted bytes; past it the
	// shard evicts by CLOCK (0 = fleet.DefaultCacheBytes).
	CacheBytes int64
}

// fleetDigest hashes everything that determines a session's answers:
// the program source, the plan mode, the client-supplied assertions, the
// hot-loop thresholds, and the deployment salt. Sessions created from the
// same request on any instance digest equal; anything that could change
// an answer changes the digest, so hits are confined to genuinely
// identical sessions. The session name is deliberately
// excluded — it labels the session, it does not shape answers.
func fleetDigest(req *CreateSessionRequest, src, salt string) string {
	h := fnv.New64a()
	w := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
	}
	w("v1", salt, src, req.Plan)
	if len(req.Assertions) > 0 {
		b, _ := json.Marshal(req.Assertions)
		w(string(b))
	}
	if req.HotLoops != nil {
		w(fmt.Sprintf("hot|%g|%g", req.HotLoops.MinWeightFrac, req.HotLoops.MinAvgIters))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// fleetFingerprint returns the session's current quarantine fingerprint,
// cached per recovery epoch (the epoch bumps on every event, so the cache
// invalidates itself; the quarantine is monotone, so a racing recompute
// is at worst fresher than the epoch it is stored under).
func (sess *session) fleetFingerprint() string {
	e := sess.epoch.Load()
	sess.fpMu.Lock()
	defer sess.fpMu.Unlock()
	if sess.fpVal == "" || sess.fpEpoch != e {
		sess.fpVal = sess.quarantine.Fingerprint()
		sess.fpEpoch = e
	}
	return sess.fpVal
}

// fleetPrefix scopes every key of this session: program digest, scheme,
// recovery fingerprint. Two sessions producing the same prefix are
// answer-identical by construction, which is what lets the raw bytes
// under the key be served verbatim.
func (sess *session) fleetPrefix(scheme scaf.Scheme) string {
	return sess.fleetDigest + "|" + scheme.String() + "|" + sess.fleetFingerprint()
}

// loopKeyNS opens the part after the session prefix of a key holding one
// hot loop's whole result. The namespace names the value's encoding:
// under "loopb" the value is encodeLoopResult's served bytes. An entry of
// an older encoding (json.Marshal's, which HTML-escapes, under "loop"),
// from a snapshot or a segment an older backend streamed, can therefore
// only miss.
const loopKeyNS = "loopb|"

// fleetLoopKey keys one hot loop's whole result.
func (sess *session) fleetLoopKey(scheme scaf.Scheme, l *cfg.Loop) string {
	return sess.fleetPrefix(scheme) + "|" + loopKeyNS + l.Name()
}

// IsLoopKey reports whether a fleet cache key holds one hot loop's whole
// result in the encoding this package serves, i.e. is a key fleetLoopKey
// makes: "<digest>|<scheme>|<fingerprint>|loopb|<loop>".
func IsLoopKey(key string) bool {
	parts := strings.SplitN(key, "|", 4)
	return len(parts) == 4 && strings.HasPrefix(parts[3], loopKeyNS)
}

// fleetLoopLookup returns one loop's served bytes from the tier. The
// value is spliced into the /analyze reply as it is, never decoded:
// the key pins the session's program, scheme and recovery state, so
// any instance that published under it encoded the same result to the
// same bytes. The tier holds every loop value to isJSONObject, once per
// stored entry, on the entry's first hit. A value that fails, such as
// one truncated in a snapshot or a streamed segment, is a miss, never
// served, and leaves the shard, so the next publish of the loop lands.
func (sess *session) fleetLoopLookup(key string) ([]byte, bool) {
	return sess.fleet.Get(key, isJSONObject)
}

// fleetLoopPublish publishes one freshly-resolved loop result's served
// bytes b under key, provided it is canonical: no deadline was set
// (caller), nothing timed out, no module panicked, and no recovery event
// landed mid-resolution (the key was computed before resolving; a
// changed fingerprint means the key no longer names the session's
// current state). The entry is indexed under every assertion its
// queries are predicated on, so fleet-wide invalidation removes it
// exactly.
func (sess *session) fleetLoopPublish(key string, scheme scaf.Scheme, l *cfg.Loop, wr WireLoopResult, b []byte, delta core.Counters) {
	if delta.Timeouts > 0 || delta.ModulePanics > 0 {
		return
	}
	if sess.fleetLoopKey(scheme, l) != key {
		return
	}
	sess.fleet.Put(key, loopAssertKeys(wr), b)
}

// loopAssertKeys collects the deduplicated, sorted assertion keys across
// a loop result's query options.
func loopAssertKeys(wr WireLoopResult) []string {
	seen := map[string]bool{}
	var keys []string
	for _, q := range wr.Queries {
		for _, o := range q.Options {
			for _, a := range o.Asserts {
				if !seen[a] {
					seen[a] = true
					keys = append(keys, a)
				}
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// fleetRevoke revokes asserts in the instance's shard, after a recovery
// event of this session withdrew them: an entry resting on one is
// removed and never stored here again, so a fresh session of the same
// program cannot be served it either.
func (sess *session) fleetRevoke(asserts []string) {
	if sess.fleet != nil && len(asserts) > 0 {
		sess.fleet.Local().InvalidateAsserts(asserts)
	}
}
