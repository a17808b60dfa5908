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
	"scaf/internal/fleet"
)

// This file joins the daemon to a fleet: it binds the session's
// per-scheme core.SharedCaches to the cross-instance tier through a
// codec, layers a whole-loop wire-bytes lookaside over /analyze, and
// fans recovery events out to (and applies them from) the other
// instances.
//
// Byte-identity across instances rests on three locks:
//
//   - only canonical entries travel (the SharedCache publication rule
//     locally, the codec's representability rules on the wire), so a
//     remote answer is the same pure function of the proposition any
//     instance computes;
//   - every fleet key is prefixed by the session's program digest and
//     quarantine fingerprint, so entries can only match between sessions
//     holding the same program in the same recovery state;
//   - recovery broadcasts are synchronous — the violating request is not
//     answered until every reachable peer has revoked — and the local
//     revoked sets stay authoritative over anything remote, so a missed
//     peer degrades hit rate, never answers.

// FleetConfig joins a server to a fleet of scaf-serve instances.
type FleetConfig struct {
	// Self is this instance's node ID (e.g. "b0").
	Self string
	// Peers maps the other instances' node IDs to base URLs.
	Peers map[string]string
	// Salt folds deployment configuration the digest cannot see (extra
	// modules, build variants) into every session digest. Instances with
	// different salts never share cache entries.
	Salt string
	// Timeout and AutoFlush tune the tier (zeros pick fleet defaults).
	Timeout   time.Duration
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
// an answer changes the digest, so cross-instance hits are confined to
// genuinely identical sessions. The session name is deliberately
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
// from a snapshot or an older peer, can therefore only miss.
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

// fleetModRefKey keys one canonical top-level mod-ref proposition, or
// reports the query unrepresentable (ok=false): the codec only speaks
// instruction-pair queries in the session's hot loops under the canonical
// dominator trees and no calling context. Unrepresentable queries miss
// and are not published — partial coverage degrades hit rate, never
// answers (the core.CachePeer contract).
func (sess *session) fleetModRefKey(scheme scaf.Scheme, q *core.ModRefQuery) (string, bool) {
	if q.I1 == nil || q.I2 == nil || q.Loc.Ptr != nil || q.Ctx != nil || q.Loop == nil {
		return "", false
	}
	if sess.loops[q.Loop.Name()] != q.Loop {
		return "", false
	}
	if q.DT != sess.client.Prog.Dom[q.Loop.Fn] || q.PDT != sess.client.Prog.PostDom[q.Loop.Fn] {
		return "", false
	}
	return sess.fleetPrefix(scheme) + "|mr|" + q.Loop.Name() + "|" +
		InstrRef(q.I1) + "|" + InstrRef(q.I2) + "|" + q.Rel.String(), true
}

// fleetAssert is an assertion in fleet wire form: process-independent
// refs for every program point, exact float64 cost (Go's JSON encoding
// round-trips float64 exactly), full content including conflict points so
// the decoded assertion is String()- and key()-identical to the original.
type fleetAssert struct {
	Module    string      `json:"module"`
	Kind      string      `json:"kind,omitempty"`
	Points    []WirePoint `json:"points,omitempty"`
	Conflicts []WirePoint `json:"conflicts,omitempty"`
	Cost      float64     `json:"cost"`
}

type fleetOption struct {
	Asserts []fleetAssert `json:"asserts,omitempty"`
}

// fleetModRef is a core.ModRefResponse in fleet wire form. Option and
// assertion order are preserved exactly: wire identity of a served answer
// depends on them.
type fleetModRef struct {
	Result   int           `json:"result"`
	Options  []fleetOption `json:"options,omitempty"`
	Contribs []string      `json:"contribs,omitempty"`
}

// encodeFleetPoint renders a core.Point as a WirePoint ref; ok=false
// marks a shape the wire cannot name (making the whole response
// unrepresentable).
func encodeFleetPoint(p core.Point) (WirePoint, bool) {
	switch {
	case p.Instr != nil:
		id := p.Instr.ID
		return WirePoint{Fn: p.Instr.Blk.Fn.Name, Instr: &id}, true
	case p.Block != nil && p.EdgeTo != nil:
		return WirePoint{Fn: p.Block.Fn.Name, Block: p.Block.String(), EdgeTo: p.EdgeTo.String()}, true
	case p.Block != nil:
		return WirePoint{Fn: p.Block.Fn.Name, Block: p.Block.String()}, true
	case p.G != nil:
		return WirePoint{Global: p.G.GName}, true
	}
	return WirePoint{}, false
}

func encodeFleetPoints(ps []core.Point) ([]WirePoint, bool) {
	if len(ps) == 0 {
		return nil, true
	}
	out := make([]WirePoint, 0, len(ps))
	for _, p := range ps {
		wp, ok := encodeFleetPoint(p)
		if !ok {
			return nil, false
		}
		out = append(out, wp)
	}
	return out, true
}

// encodeFleetModRef serializes a canonical response; ok=false when some
// assertion point has no wire name.
func encodeFleetModRef(r core.ModRefResponse) ([]byte, bool) {
	w := fleetModRef{Result: int(r.Result), Contribs: r.Contribs}
	for _, o := range r.Options {
		fo := fleetOption{}
		for _, a := range o.Asserts {
			pts, ok := encodeFleetPoints(a.Points)
			if !ok {
				return nil, false
			}
			conf, ok := encodeFleetPoints(a.Conflicts)
			if !ok {
				return nil, false
			}
			fo.Asserts = append(fo.Asserts, fleetAssert{
				Module: a.Module, Kind: a.Kind, Points: pts, Conflicts: conf, Cost: a.Cost,
			})
		}
		w.Options = append(w.Options, fo)
	}
	b, err := json.Marshal(w)
	if err != nil {
		return nil, false
	}
	return b, true
}

// decodeFleetModRef reconstructs a response against this session's
// compiled module. Refs resolve to this process's ir objects, so the
// decoded response renders (EncodeQuery) byte-identically to the
// producer's. ok=false on any ref that does not resolve — a digest
// collision or version skew turns into a miss, never a wrong answer.
func (sess *session) decodeFleetModRef(b []byte) (core.ModRefResponse, bool) {
	var w fleetModRef
	if err := json.Unmarshal(b, &w); err != nil {
		return core.ModRefResponse{}, false
	}
	r := core.ModRefResponse{Result: core.ModRefResult(w.Result), Contribs: w.Contribs}
	for _, fo := range w.Options {
		o := core.Option{}
		for _, fa := range fo.Asserts {
			a := core.Assertion{Module: fa.Module, Kind: fa.Kind, Cost: fa.Cost}
			for _, wp := range fa.Points {
				p, err := ResolvePoint(sess.sys.Mod, wp)
				if err != nil {
					return core.ModRefResponse{}, false
				}
				a.Points = append(a.Points, p)
			}
			for _, wp := range fa.Conflicts {
				p, err := ResolvePoint(sess.sys.Mod, wp)
				if err != nil {
					return core.ModRefResponse{}, false
				}
				a.Conflicts = append(a.Conflicts, p)
			}
			o.Asserts = append(o.Asserts, a)
		}
		r.Options = append(r.Options, o)
	}
	return r, true
}

// fleetPeer implements core.CachePeer for one (session, scheme) pair over
// the tier.
type fleetPeer struct {
	sess   *session
	scheme scaf.Scheme
	tier   *fleet.Tier
}

func (p *fleetPeer) GetModRef(q *core.ModRefQuery) (core.ModRefResponse, bool) {
	key, ok := p.sess.fleetModRefKey(p.scheme, q)
	if !ok {
		return core.ModRefResponse{}, false
	}
	b, ok := p.tier.Get(key, nil)
	if !ok {
		return core.ModRefResponse{}, false
	}
	return p.sess.decodeFleetModRef(b)
}

func (p *fleetPeer) PutModRef(q *core.ModRefQuery, asserts []string, r core.ModRefResponse) {
	key, ok := p.sess.fleetModRefKey(p.scheme, q)
	if !ok {
		return
	}
	b, ok := encodeFleetModRef(r)
	if !ok {
		return
	}
	p.tier.Put(key, asserts, b)
}

// fleetLoopLookup returns one loop's served bytes from the tier. The
// value is spliced into the /analyze reply as it is, never decoded:
// the key pins the session's program, scheme and recovery state, so
// any instance that published under it encoded the same result to the
// same bytes. The tier holds every loop value to isJSONObject, once per
// stored entry: on the entry's first local hit, or before it installs a
// peer's reply. A value that fails, such as one truncated in a snapshot,
// a streamed segment or a peer reply, is a miss, never served, and
// leaves the shard, so the next publish of the loop lands.
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

// fleetBroadcast replicates a local recovery event (observe report,
// misspeculating execution, module panic) to every peer, synchronously:
// by the time the violating request is answered, every reachable
// instance has revoked. Unreachable peers are tolerated — their entries
// stay blocked by this instance's revoked sets and fingerprinted keys.
func (sess *session) fleetBroadcast(asserts, modules []string) {
	if sess.fleet == nil || (len(asserts) == 0 && len(modules) == 0) {
		return
	}
	sess.fleet.BroadcastRecovery(fleet.RecoveryRequest{
		Asserts: asserts,
		Modules: modules,
		Scope:   sess.fleetDigest,
	})
}

// applyFleetRecovery is the receiving half of fleetBroadcast, invoked by
// the tier's HTTP handler after the local shard has been invalidated. It
// folds the event into every session holding the same program (digest
// scope), invalidating predicated entries and bumping the epoch exactly
// as a local observe report would — minus the re-broadcast, which the
// origin already did.
func (s *Server) applyFleetRecovery(req fleet.RecoveryRequest) {
	for _, sess := range s.registered() {
		if sess.fleetDigest != req.Scope {
			continue
		}
		newA, newM := sess.quarantine.ApplyRemote(req.Asserts, req.Modules, req.Origin)
		if newA+newM == 0 {
			continue
		}
		sess.epoch.Add(1)
		if newM > 0 {
			// Module withdrawal changes answers that never name the module:
			// flush, exactly as the local module-quarantine path does.
			for _, sc := range sess.caches {
				sc.Flush()
			}
		} else {
			for _, sc := range sess.caches {
				sc.InvalidateAsserts(req.Asserts)
			}
		}
	}
	if len(req.Modules) > 0 && s.fleet != nil {
		// The shard's assertion index cannot attribute module-shaped
		// entries; flushing is the blunt-but-sound rule (entries are a
		// cache, and the revoked set survives a flush).
		s.fleet.Local().Flush()
	}
}
