package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scaf/internal/fleet"
	"scaf/internal/persist"
	"scaf/internal/recovery"
)

// The fleet's front tier: a Router speaks the exact scaf-serve HTTP
// surface and spreads it across N backend instances. Session mutations
// (create, delete) broadcast to every backend in one serialized order,
// each create under a session ID the router mints from one counter, so
// the backends' session registries stay identical; read traffic
// (analyze, query) shards across backends by consistent hash (or
// round-robin), which is sound because every answer is a pure function of
// (session state, proposition): any backend serves the same bytes, the
// fleet cache tier only changes who computes them.
//
// There is deliberately no failover: a request for a down backend's shard
// is refused with 503 + Retry-After rather than silently re-homed, so a
// partition degrades capacity, never placement determinism. A backend
// that answers again is reconciled before it takes traffic: the router
// keeps each live session's create body and the SessionInfo its create
// returned, deletes what the backend holds that is not live, creates what
// it lacks under the same IDs, and brings every session's quarantine to
// the union the backends hold. It does so once while mutations flow and
// once more under the mutation lock, for what changed meanwhile. A
// broadcast the backends split on is repaired the same way before its
// 502 goes out.
//
// The router is also the one path a recovery event takes between
// backends, which never talk to each other. An event (an observe
// report, a misspeculating execution, a module panic during a read)
// happens on the one backend that serves the request, and that
// backend's reply names the session's new quarantine fingerprint
// (quarantineHeader). Before the router relays a reply naming a
// fingerprint other than the one it last replicated for the session, it
// brings the session's copies on every up backend to the union of their
// quarantines, under the mutation lock, and marks down a backend that
// fails to take it.

// RouterConfig configures a fleet front tier.
type RouterConfig struct {
	// Backends maps backend IDs to base URLs (e.g. "b0" ->
	// "http://127.0.0.1:8347"). IDs are the shard names.
	Backends map[string]string
	// Route picks the read-routing policy: "hash" (default; consistent
	// hash, deterministic placement) or "rr" (round-robin, best spread).
	Route string
	// Timeout bounds each backend request the router sends, through the
	// request's context (0: unbounded — analyze batches can legitimately
	// run long).
	Timeout time.Duration
	// Probe is the health-probe period for down backends (0: no background
	// prober; Probe() can still be called explicitly).
	Probe time.Duration
	// ProbeMax caps the prober's exponential backoff per down backend
	// (0: 16× Probe). Each consecutive failed probe doubles that
	// backend's reprobe delay from Probe up to this cap, with a small
	// deterministic jitter derived from (id, failure count) so a wall of
	// routers probing the same dead backend never synchronizes.
	ProbeMax time.Duration
	// DrainTimeout bounds the fenced drain during a membership change
	// (0: 30s). If in-flight reads have not finished by then, the move
	// rolls back to the old owner instead of wedging the fleet.
	DrainTimeout time.Duration
	// CacheDir, when non-empty, persists the router's replay state there
	// on Close and after each membership change, and loads it on boot: the
	// members, the session-ID counter and the live sessions (each one's
	// create body and SessionInfo). A restarted router so keeps minting
	// where it stopped and can still reconcile an empty backend; the file
	// holds no history, so its size follows the live sessions. Validated
	// with the same checksummed framing as the cache snapshots — a corrupt
	// file degrades to the valid prefix (at worst a cold router), never a
	// wrong session. Membership is persisted too, so a restarted router
	// serves the post-elasticity fleet, not the boot-time one.
	CacheDir string
}

const defaultDrainTimeout = 30 * time.Second

// liveSession is one session the fleet holds: the body of the create
// that made it and the SessionInfo that create returned, which is all
// reconcile needs to make it again on a backend that lacks it, and the
// quarantine fingerprint the router last replicated ("" for none yet),
// which changes under bmu and mu.
type liveSession struct {
	body []byte
	info SessionInfo
	fp   string
}

// ProbeInfo is one down backend's prober state as exposed in /metrics:
// consecutive failures, the current backoff delay, and how far away the
// next probe is.
type ProbeInfo struct {
	Failures  int   `json:"failures"`
	BackoffMS int64 `json:"backoff_ms"`
	NextInMS  int64 `json:"next_in_ms"`
}

// RouterCounters are the router's own /metrics counters.
type RouterCounters struct {
	Proxied      int64                `json:"proxied"`
	Fanouts      int64                `json:"fanouts"`
	Refused      int64                `json:"refused"`
	Inconsistent int64                `json:"inconsistent"`
	Rejoins      int64                `json:"rejoins"`
	Joins        int64                `json:"joins"`
	Leaves       int64                `json:"leaves"`
	Rollbacks    int64                `json:"rollbacks"`
	Moved503     int64                `json:"moved_503"`
	Dials        int64                `json:"dials"`
	Sessions     int                  `json:"sessions"`
	Route        string               `json:"route"`
	Members      []string             `json:"members"`
	Pending      string               `json:"pending,omitempty"`
	Down         []string             `json:"down,omitempty"`
	Probes       map[string]ProbeInfo `json:"probes,omitempty"`
}

// RouterMetrics is the router's /metrics body: its own counters plus each
// live backend's verbatim metrics document.
type RouterMetrics struct {
	Router   RouterCounters             `json:"router"`
	Backends map[string]json.RawMessage `json:"backends"`
}

// RouterHealth is the router's /healthz body.
type RouterHealth struct {
	Status   string            `json:"status"`
	Backends map[string]string `json:"backends"`
	Sessions int               `json:"sessions"`
}

// readGen is one read generation: every sharded read joins the current
// generation for its lifetime, and a membership cutover drains the old
// generation (waits for its WaitGroup) after installing the fence.
type readGen struct {
	wg sync.WaitGroup
}

// probeState is the prober's per-down-backend backoff state.
type probeState struct {
	fails int
	next  time.Time
}

// Router is the fleet front tier.
type Router struct {
	cfg RouterConfig
	tr  *fleet.Transport
	mux *http.ServeMux

	// bmu serializes session mutations, recovery replication, the second
	// pass of every catch-up, and the fenced phase of membership moves:
	// every backend sees creates and deletes in the same order, and a
	// backend is marked up or flipped into the ring only after a
	// reconcile that no mutation or replication interleaved with.
	bmu sync.Mutex
	// pmu serializes probe passes, so at most one catch-up of a backend
	// runs at a time: a pass finds a backend down only once any earlier
	// catch-up of it has ended, and a stale first pass never writes to a
	// backend that broadcasts reach.
	pmu sync.Mutex

	// mu guards the mutable fleet view. Membership is live: join/leave
	// rewrite ids/base/ring, and during a cutover nextRing carries the
	// post-move placement (the epoch fence) while gen tracks in-flight
	// sharded reads so the old placement can be drained before the flip.
	mu       sync.Mutex
	ids      []string
	base     map[string]string
	ring     *fleet.Ring
	nextRing *fleet.Ring // non-nil only while a segment fence is up
	gen      *readGen
	moveID   string // backend mid-join/mid-leave ("" when no move)
	moveOp   string // "join" or "leave"
	down     map[string]bool
	probe    map[string]*probeState
	// sessions holds the live sessions by ID, and minted counts the
	// session IDs the fleet has consumed: the next create is
	// s<minted+1>. Both change under bmu as well, so a holder of bmu may
	// read them without mu.
	sessions map[string]*liveSession
	minted   int

	rrNext                                           atomic.Uint64
	proxied, fanouts, refused, inconsistent, rejoins atomic.Int64
	joins, leaves, rollbacks, moved503, dials        atomic.Int64

	// moveHook, when set before serving, observes cutover phase
	// transitions (op, phase, id). Test seam for killing participants at
	// exact points of the state machine.
	moveHook func(op, phase, id string)

	stop     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
}

// NewRouter builds a front tier over cfg.Backends.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.Route == "" {
		cfg.Route = "hash"
	}
	rt := &Router{
		cfg:      cfg,
		base:     map[string]string{},
		gen:      &readGen{},
		down:     map[string]bool{},
		probe:    map[string]*probeState{},
		sessions: map[string]*liveSession{},
		stop:     make(chan struct{}),
	}
	rt.tr = fleet.NewTransport(&rt.dials)
	for id, base := range cfg.Backends {
		rt.ids = append(rt.ids, id)
		rt.base[id] = base
	}
	sort.Strings(rt.ids)
	rt.ring = fleet.NewRing(rt.ids, 0)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("POST /sessions", rt.handleCreate)
	mux.HandleFunc("GET /sessions", rt.handleReadAny)
	mux.HandleFunc("GET /sessions/{id}", rt.handleReadAny)
	mux.HandleFunc("DELETE /sessions/{id}", rt.handleDelete)
	mux.HandleFunc("POST /sessions/{id}/analyze", rt.handleAnalyze)
	mux.HandleFunc("POST /sessions/{id}/query", rt.handleQuery)
	mux.HandleFunc("POST /sessions/{id}/observe", rt.handleMutation)
	mux.HandleFunc("POST /sessions/{id}/execute", rt.handleMutation)
	mux.HandleFunc("POST /fleet/join", rt.handleMove("join"))
	mux.HandleFunc("POST /fleet/leave", rt.handleMove("leave"))
	rt.mux = mux

	if cfg.CacheDir != "" {
		rt.loadPersist()
	}
	if cfg.Probe > 0 {
		rt.done.Add(1)
		go rt.probeLoop(cfg.Probe)
	}
	return rt
}

// routerCounterRecord / routerSessionRecord are the on-disk forms of
// the router's replay state: the ID counter, and one live session.
type routerCounterRecord struct {
	Minted int `json:"minted"`
}

type routerSessionRecord struct {
	Body []byte      `json:"body"`
	Info SessionInfo `json:"info"`
}

// routerMemberRecord is one fleet member on disk: membership is live
// state now, so a restarted router must serve the post-elasticity
// fleet, not the boot-time -backends flag.
type routerMemberRecord struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// routerSnapFile holds the router's replay state under its CacheDir.
const routerSnapFile = "router.snap"

func (rt *Router) persistPath() string {
	return filepath.Join(rt.cfg.CacheDir, routerSnapFile)
}

// savePersist writes the members, the ID counter and the live sessions
// with the persist framing (atomic temp+rename via a full re-encode — the
// state is small relative to cache shards, and a single atomic file
// keeps the three consistent with each other).
func (rt *Router) savePersist() {
	if err := os.MkdirAll(rt.cfg.CacheDir, 0o755); err != nil {
		log.Printf("router: persist save: %v", err)
		return
	}
	rt.mu.Lock()
	records := make([]persist.Record, 0, len(rt.ids)+1+len(rt.sessions))
	for _, id := range rt.ids {
		p, _ := json.Marshal(routerMemberRecord{ID: id, URL: rt.base[id]})
		records = append(records, persist.Record{Kind: persist.KindMembers, Payload: p})
	}
	p, _ := json.Marshal(routerCounterRecord{Minted: rt.minted})
	records = append(records, persist.Record{Kind: persist.KindCounter, Payload: p})
	sids := make([]string, 0, len(rt.sessions))
	for sid := range rt.sessions {
		sids = append(sids, sid)
	}
	sortSessionIDs(sids)
	for _, sid := range sids {
		ls := rt.sessions[sid]
		p, _ := json.Marshal(routerSessionRecord{Body: ls.body, Info: ls.info})
		records = append(records, persist.Record{Kind: persist.KindSessions, Payload: p})
	}
	rt.mu.Unlock()
	if err := persist.WriteFileAtomic(rt.cfg.CacheDir, routerSnapFile, persist.EncodeFile(records)); err != nil {
		log.Printf("router: persist save: %v", err)
	}
}

// loadPersist restores the members, the ID counter and the live
// sessions from a prior graceful Close. Corruption degrades to the valid
// prefix, and so does a snapshot older than the fleet (a router killed
// without Close): the router then knows fewer sessions and a lower
// counter than the backends. Its creates walk the counter past the IDs
// the backends hold (each refuses a held ID with 409), and a reconcile
// removes the sessions it does not know from a backend it catches up.
func (rt *Router) loadPersist() {
	data, err := os.ReadFile(rt.persistPath())
	if err != nil {
		return
	}
	records, _ := persist.DecodeFile(data)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	// Member records come first in the file; apply whatever complete set
	// was read even if a later record stops the load (valid-prefix rule).
	// The boot-time Backends map stays authoritative for the IDs it
	// names (an operator restarting the router with fresh URLs must win);
	// persisted records extend it with backends that joined live and were
	// never in the flags. A snapshot from before elasticity has no member
	// records and changes nothing.
	members := map[string]string{}
	defer func() {
		grown := false
		for id, u := range members {
			if _, known := rt.base[id]; !known {
				rt.ids = append(rt.ids, id)
				rt.base[id] = u
				grown = true
			}
		}
		if grown {
			sort.Strings(rt.ids)
			rt.ring = fleet.NewRing(rt.ids, 0)
		}
	}()
	for _, r := range records {
		switch r.Kind {
		case persist.KindMembers:
			var mr routerMemberRecord
			if err := json.Unmarshal(r.Payload, &mr); err != nil || mr.ID == "" || mr.URL == "" {
				return
			}
			members[mr.ID] = mr.URL
		case persist.KindCounter:
			var cr routerCounterRecord
			if err := json.Unmarshal(r.Payload, &cr); err != nil {
				return
			}
			rt.minted = cr.Minted
		case persist.KindSessions:
			var sr routerSessionRecord
			if err := json.Unmarshal(r.Payload, &sr); err != nil || len(sr.Body) == 0 {
				return
			}
			if n, ok := sessionNum(sr.Info.ID); !ok || n > rt.minted {
				return
			}
			rt.sessions[sr.Info.ID] = &liveSession{body: sr.Body, info: sr.Info}
		default:
			return
		}
	}
}

// Handler returns the router's HTTP handler (the scaf-serve surface).
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the background prober, drops pooled backend connections,
// and persists the replay state when a CacheDir is configured.
// Idempotent and safe under concurrent callers; every Close returns
// only after the teardown has completed exactly once.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() {
		close(rt.stop)
		rt.done.Wait()
		rt.tr.CloseIdleConnections()
		if rt.cfg.CacheDir != "" {
			rt.savePersist()
		}
	})
}

func (rt *Router) probeLoop(period time.Duration) {
	defer rt.done.Done()
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case now := <-t.C:
			rt.probeDue(now)
		}
	}
}

// backoffDelay computes a down backend's reprobe delay: the probe period
// doubled per consecutive failure, capped at ProbeMax, plus a
// deterministic jitter in [0, delay/4] derived from (id, fails) — the
// same inputs give the same delay everywhere, so behavior stays
// reproducible, while distinct backends (and successive failures)
// de-synchronize instead of stampeding together.
func (rt *Router) backoffDelay(id string, fails int) time.Duration {
	base := rt.cfg.Probe
	if base <= 0 {
		base = 2 * time.Second
	}
	limit := rt.cfg.ProbeMax
	if limit <= 0 {
		limit = 16 * base
	}
	d := base
	for i := 1; i < fails && d < limit; i++ {
		d *= 2
	}
	if d > limit {
		d = limit
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", id, fails)
	return d + time.Duration(h.Sum64()%uint64(d/4+1))
}

// probeDue probes only the down backends whose backoff has elapsed; a
// zero now forces all of them (explicit Probe()).
func (rt *Router) probeDue(now time.Time) {
	rt.pmu.Lock()
	defer rt.pmu.Unlock()
	rt.mu.Lock()
	var due []string
	for _, id := range rt.ids {
		if !rt.down[id] {
			continue
		}
		st := rt.probe[id]
		if now.IsZero() || st == nil || !now.Before(st.next) {
			due = append(due, id)
		}
	}
	rt.mu.Unlock()
	for _, id := range due {
		rt.rejoin(id)
		rt.mu.Lock()
		if rt.down[id] {
			st := rt.probe[id]
			if st == nil {
				st = &probeState{}
				rt.probe[id] = st
			}
			st.fails++
			st.next = time.Now().Add(rt.backoffDelay(id, st.fails))
		} else {
			delete(rt.probe, id)
		}
		rt.mu.Unlock()
	}
}

// ---- backend bookkeeping ----

func (rt *Router) isDown(id string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.down[id]
}

func (rt *Router) markDown(id string) {
	rt.mu.Lock()
	rt.down[id] = true
	rt.mu.Unlock()
}

// upIDs returns the live backends, sorted.
func (rt *Router) upIDs() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var up []string
	for _, id := range rt.ids {
		if !rt.down[id] {
			up = append(up, id)
		}
	}
	return up
}

// pick chooses the backend for a read keyed by key. In rr mode down
// backends are skipped (round-robin has no placement to preserve); in
// hash mode the shard owner is returned even when down — the caller
// refuses the request rather than re-homing it.
func (rt *Router) pick(key string) (string, *httpError) {
	if rt.cfg.Route == "rr" {
		up := rt.upIDs()
		if len(up) == 0 {
			return "", rt.errNoBackends()
		}
		return up[rt.rrNext.Add(1)%uint64(len(up))], nil
	}
	return rt.pickHash(key)
}

// analyzeKey places one loop of session sid on the ring: the loop's
// analyze sub-request and every /query about it, so a query lands on the
// backend whose shared cache holds its loop's batch answers. The scheme
// counts by its canonical name, however the request spells it (a name
// that does not parse counts as spelled; its backend refuses it), so a
// backend can work out where the router places a loop.
func analyzeKey(sid, scheme, loop string) string {
	if sc, he := parseScheme(scheme); he == nil {
		scheme = sc.String()
	}
	return "a|" + sid + "|" + scheme + "|" + loop
}

// AnalyzeOwner returns the member that hash routing sends loop to when
// it fans out an analyze of session sid under scheme (any spelling the
// backends accept), on the current ring.
func (rt *Router) AnalyzeOwner(sid, scheme, loop string) string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ring.Owner(analyzeKey(sid, scheme, loop))
}

// owner returns the session's home backend (mutations always go there,
// in both routing modes, so re-resolution work lands deterministically).
func (rt *Router) owner(sid string) (string, *httpError) {
	return rt.pickHash("s|" + sid)
}

func (rt *Router) pickHash(key string) (string, *httpError) {
	rt.mu.Lock()
	id := rt.ring.Owner(key)
	moving := rt.nextRing != nil && rt.nextRing.Owner(key) != id
	down := rt.down[id]
	rt.mu.Unlock()
	if moving {
		// The epoch fence: this key's segment is mid-cutover. Refusing
		// with a bounded, retryable 503 is the only client-visible effect
		// of a move — the key is never served from two owners at once.
		rt.moved503.Add(1)
		rt.refused.Add(1)
		return "", backendDown("segment owned by %s is moving; retry shortly", id)
	}
	if down {
		rt.refused.Add(1)
		return "", backendDown("backend %s owns this shard and is down", id)
	}
	return id, nil
}

// backendDown is a retryable refusal: 503 backend_down with Retry-After.
func backendDown(format string, args ...any) *httpError {
	he := &httpError{status: http.StatusServiceUnavailable,
		detail: ErrorDetail{Code: "backend_down", Message: fmt.Sprintf(format, args...)}}
	he.retryAfter = "1"
	return he
}

// beginRead joins the current read generation; the caller must call
// endRead (Done) when the read finishes. A cutover swaps the generation
// after installing the fence and waits out the old one, so every read
// admitted under the old placement completes before ownership flips.
func (rt *Router) beginRead() *readGen {
	rt.mu.Lock()
	g := rt.gen
	g.wg.Add(1)
	rt.mu.Unlock()
	return g
}

func (rt *Router) errNoBackends() *httpError {
	rt.refused.Add(1)
	return backendDown("no live backends")
}

// baseURL resolves a backend's base URL under the membership lock.
func (rt *Router) baseURL(id string) string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.base[id]
}

// hop is one request the router sends a backend.
type hop struct {
	method, path string
	body         []byte
	// sid is the minted session ID a create carries in sessionIDHeader.
	sid string
	// probe marks traffic to a backend being probed, caught up, moved or
	// brought up to a session's quarantine: a transport error does not
	// mark it down, and proxied does not count the hop.
	probe bool
}

// send issues one backend request, bounded by RouterConfig.Timeout
// through its context. A transport error is reported as (0, nil, nil)
// and, unless h is a probe, marks the backend down; a reply longer than
// maxPeerResponse is reported as a 502 reply_too_large.
func (rt *Router) send(id string, h hop) (int, http.Header, []byte) {
	failed := func() (int, http.Header, []byte) {
		if !h.probe {
			rt.markDown(id)
		}
		return 0, nil, nil
	}
	ctx := context.Background()
	if rt.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rt.cfg.Timeout)
		defer cancel()
	}
	var rd io.Reader
	if h.body != nil {
		rd = bytes.NewReader(h.body)
	}
	req, err := http.NewRequestWithContext(ctx, h.method, rt.baseURL(id)+h.path, rd)
	if err != nil {
		return failed()
	}
	if h.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if h.sid != "" {
		req.Header.Set(sessionIDHeader, h.sid)
	}
	resp, err := rt.tr.RoundTrip(req)
	if err != nil {
		return failed()
	}
	defer resp.Body.Close()
	// One byte past the limit tells a reply that fits from one that was
	// cut; a cut reply must not reach the client under the backend's
	// status. The backend did answer, so it stays up.
	raw, err := readReply(resp, maxPeerResponse)
	if err != nil {
		return failed()
	}
	if !h.probe {
		rt.proxied.Add(1)
	}
	if len(raw) > maxPeerResponse {
		return errorReply(&httpError{status: http.StatusBadGateway,
			detail: ErrorDetail{Code: "reply_too_large",
				Message: fmt.Sprintf("a backend reply exceeded %d bytes", maxPeerResponse)}})
	}
	return resp.StatusCode, resp.Header, raw
}

const maxPeerResponse = 64 << 20

// readReply reads resp's body up to limit bytes and one more, as
// io.ReadAll of a LimitReader would. A body that declares a length
// within the limit is read into one buffer of that length plus the one
// byte the end-of-body read needs, where io.ReadAll would double its way
// up from 512 bytes.
func readReply(resp *http.Response, limit int64) ([]byte, error) {
	size := int64(512)
	if n := resp.ContentLength; n >= 0 && n <= limit {
		size = n + 1
	}
	r := io.LimitReader(resp.Body, limit+1)
	b := make([]byte, 0, size)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// errorReply renders he as the status, header and body writeError would
// send, so relay and broadcast handle it as any backend reply.
func errorReply(he *httpError) (int, http.Header, []byte) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(ErrorResponse{Error: he.detail}) // a bytes.Buffer write cannot fail
	return he.status, http.Header{"Content-Type": {"application/json"}}, b.Bytes()
}

// relay writes a backend response through verbatim, but for its headers:
// only Content-Type and Retry-After pass, so the session-ID header of a
// create never reaches a client. Status 0 (transport failure) becomes a
// 503.
func (rt *Router) relay(w http.ResponseWriter, id string, status int, hdr http.Header, body []byte) {
	if status == 0 {
		writeError(w, backendDown("backend %s did not answer", id))
		return
	}
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := hdr.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(status)
	w.Write(body)
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, errBadRequest("reading request body: %v", err))
		return nil, false
	}
	return body, true
}

// ---- session mutations: serialized broadcast ----

// broadcast sends one mutation to every live backend in parallel (each
// backend sees at most one in-flight mutation thanks to bmu) and demands
// byte-identical responses: the backends hold replicated state, so any
// divergence is a fleet inconsistency, surfaced as 502 rather than papered
// over. Before the 502 goes out, every backend that answered is
// reconciled to the live sessions, which a refused mutation leaves as
// they were, and one that reconcile cannot finish is marked down, so a
// split create or delete leaves no backend holding what the others lack.
func (rt *Router) broadcast(h hop) (int, http.Header, []byte, *httpError) {
	up := rt.upIDs()
	if len(up) == 0 {
		return 0, nil, nil, rt.errNoBackends()
	}
	type reply struct {
		id     string
		status int
		hdr    http.Header
		body   []byte
	}
	replies := make([]reply, len(up))
	var wg sync.WaitGroup
	for i, id := range up {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			st, hdr, b := rt.send(id, h)
			replies[i] = reply{id: id, status: st, hdr: hdr, body: b}
		}(i, id)
	}
	wg.Wait()

	first := -1
	for i, rp := range replies {
		if rp.status == 0 {
			// Died mid-broadcast: reconcile catches it up at rejoin.
			continue
		}
		if first < 0 {
			first = i
			continue
		}
		f := replies[first]
		if rp.status != f.status || !bytes.Equal(rp.body, f.body) {
			rt.inconsistent.Add(1)
			for _, r := range replies {
				if r.status == 0 {
					continue
				}
				if _, err := rt.reconcile(r.id); err != nil {
					rt.markDown(r.id)
				}
			}
			return 0, nil, nil, &httpError{status: http.StatusBadGateway,
				detail: ErrorDetail{Code: "fleet_inconsistent",
					Message: fmt.Sprintf("backends %s and %s disagree on %s %s (%d vs %d)",
						f.id, rp.id, h.method, h.path, f.status, rp.status)}}
		}
	}
	if first < 0 {
		return 0, nil, nil, rt.errNoBackends()
	}
	return replies[first].status, replies[first].hdr, replies[first].body, nil
}

// handleCreate broadcasts a create under the next minted ID. A backend
// names the ID in its reply when the create consumed it, and only then
// does the counter advance, so it moves exactly where a single
// instance's counter would.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	rt.bmu.Lock()
	defer rt.bmu.Unlock()

	for {
		sid := "s" + strconv.Itoa(rt.minted+1)
		status, hdr, resp, he := rt.broadcast(hop{method: http.MethodPost, path: "/sessions", body: body, sid: sid})
		if he != nil {
			if he.detail.Code == "fleet_inconsistent" {
				// Some backends may have consumed the ID: burn it, so no
				// later create collides with it.
				rt.consume(sid, nil)
			}
			writeError(w, he)
			return
		}
		if status == http.StatusConflict {
			// The one 409 a create answers: every backend already holds
			// the ID, because this router booted from a snapshot older
			// than the fleet. Burn it and mint the next.
			rt.consume(sid, nil)
			continue
		}
		if hdr.Get(sessionIDHeader) == sid {
			var live *liveSession
			var info SessionInfo
			if status == http.StatusCreated && json.Unmarshal(resp, &info) == nil {
				live = &liveSession{body: body, info: info}
			}
			rt.consume(sid, live)
		}
		rt.relay(w, "", status, hdr, resp)
		return
	}
}

// consume advances the ID counter past sid and records live, the session
// sid's create made, when it made one.
func (rt *Router) consume(sid string, live *liveSession) {
	rt.mu.Lock()
	rt.minted++
	if live != nil {
		rt.sessions[sid] = live
	}
	rt.mu.Unlock()
}

func (rt *Router) handleDelete(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("id")
	rt.bmu.Lock()
	defer rt.bmu.Unlock()

	status, hdr, resp, he := rt.broadcast(hop{method: http.MethodDelete, path: "/sessions/" + sid})
	if he != nil {
		writeError(w, he)
		return
	}
	rt.mu.Lock()
	delete(rt.sessions, sid)
	rt.mu.Unlock()
	rt.relay(w, "", status, hdr, resp)
}

// ---- reads: sharded ----

func (rt *Router) handleReadAny(w http.ResponseWriter, r *http.Request) {
	up := rt.upIDs()
	if len(up) == 0 {
		writeError(w, rt.errNoBackends())
		return
	}
	id := up[rt.rrNext.Add(1)%uint64(len(up))]
	st, hdr, body := rt.send(id, hop{method: r.Method, path: r.URL.Path})
	if sid := r.PathValue("id"); rt.lost(id, sid, st) {
		writeError(w, errLost(id, sid))
		return
	}
	rt.relay(w, id, st, hdr, body)
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("id")
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	g := rt.beginRead()
	var req QueryRequest
	// Lenient decode for the routing key only; the backend enforces the
	// strict schema and produces the deterministic error if it is bad.
	_ = json.Unmarshal(body, &req)
	id, he := rt.pick(analyzeKey(sid, req.Scheme, req.Loop))
	rt.forward(w, g, sid, id, he, hop{method: http.MethodPost, path: r.URL.Path, body: body})
}

func (rt *Router) handleMutation(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("id")
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	g := rt.beginRead()
	id, he := rt.owner(sid)
	rt.forward(w, g, sid, id, he, hop{method: http.MethodPost, path: r.URL.Path, body: body})
}

// forward sends h, a request about session sid, to backend id, which was
// picked under read generation g (he: refused instead), and ends the
// read. It refuses the request when id has lost the session, replicates
// a recovery event the reply names, and then relays the reply. The read
// ends first: a move drains reads while it holds bmu, which both of
// those checks take.
func (rt *Router) forward(w http.ResponseWriter, g *readGen, sid, id string, he *httpError, h hop) {
	if he != nil {
		g.wg.Done()
		writeError(w, he)
		return
	}
	st, hdr, resp := rt.send(id, h)
	g.wg.Done()
	if rt.lost(id, sid, st) {
		writeError(w, errLost(id, sid))
		return
	}
	if !rt.replicate(sid, id, hdr) {
		writeError(w, errUnreplicated(id, sid))
		return
	}
	rt.relay(w, id, st, hdr, resp)
}

// lost reports whether backend id, which answered status to a request
// about session sid, has lost a session the fleet holds. A backend that
// restarts between two requests comes back empty, and its first sign is
// a 404 about a live session. A 404 may also be about a loop, or about a
// session a delete is removing, so lost asks id for the session itself
// (a probe hop) and, when that answers 404 too, checks under bmu, which
// a delete holds until its broadcast ends, that the session is still
// live. Then it marks id down, and the prober catches it up.
func (rt *Router) lost(id, sid string, status int) bool {
	if status != http.StatusNotFound || !rt.isLive(sid) {
		return false
	}
	if st, _, _ := rt.send(id, hop{method: http.MethodGet, path: "/sessions/" + sid, probe: true}); st != http.StatusNotFound {
		return false
	}
	rt.bmu.Lock()
	defer rt.bmu.Unlock()
	if !rt.isLive(sid) {
		return false
	}
	rt.markDown(id)
	return true
}

func (rt *Router) isLive(sid string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.sessions[sid] != nil
}

// errLost refuses a request that backend id could not serve because it
// lost session sid: it is down until a probe catches it up.
func errLost(id, sid string) *httpError {
	return backendDown("backend %s lost session %s and is being caught up", id, sid)
}

// errUnreplicated refuses a reply that names a recovery event of session
// sid the router could not read from id, the backend that took it: the
// event may be on id alone, which is down until a probe catches the
// fleet up on it.
func errUnreplicated(id, sid string) *httpError {
	return backendDown("backend %s could not be read to replicate a recovery event of session %s", id, sid)
}

// maxLoopsPerBackend bounds the sub-requests one analyze has in flight
// to one backend. A backend runs Workers requests (default 4), queues
// MaxQueue more (default 16) and sheds the rest with 429, which the
// router would relay to a client that sent one request. At 8, two
// analyzes at once (perfbench's two clients) fit a backend's default
// admission even when every loop of both lives on it.
const maxLoopsPerBackend = 8

// handleAnalyze fans a batch request out loop-by-loop across the fleet,
// at most maxLoopsPerBackend sub-requests to a backend at a time, and
// splices the results back in request order.
func (rt *Router) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("id")
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	g := rt.beginRead()
	var req AnalyzeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		// Forward undecodable bodies to one backend for its strict,
		// deterministic 400.
		id, he := rt.pickHash("s|" + sid)
		rt.forward(w, g, sid, id, he, hop{method: http.MethodPost, path: r.URL.Path, body: body})
		return
	}

	loops := req.Loops
	if len(loops) == 0 {
		rt.mu.Lock()
		if ls := rt.sessions[sid]; ls != nil {
			loops = make([]string, len(ls.info.HotLoops))
			for i, l := range ls.info.HotLoops {
				loops[i] = l.Name
			}
		}
		rt.mu.Unlock()
	}
	if len(loops) == 0 {
		// Unknown session or a session with no hot loops: one backend
		// produces the deterministic answer (404, or an empty batch).
		id, he := rt.pickHash("s|" + sid)
		rt.forward(w, g, sid, id, he, hop{method: http.MethodPost, path: r.URL.Path, body: body})
		return
	}

	// Place every loop first; a down shard refuses the whole batch before
	// any backend spends work on it.
	targets := make([]string, len(loops))
	for i, loop := range loops {
		id, he := rt.pick(analyzeKey(sid, req.Scheme, loop))
		if he != nil {
			g.wg.Done()
			writeError(w, he)
			return
		}
		targets[i] = id
	}
	rt.fanouts.Add(1)

	type part struct {
		id     string
		status int
		hdr    http.Header
		body   []byte
	}
	parts := make([]part, len(loops))
	byTarget := map[string][]int{}
	for i, id := range targets {
		byTarget[id] = append(byTarget[id], i)
	}
	var wg sync.WaitGroup
	for id, idx := range byTarget {
		var next atomic.Int32
		for range min(len(idx), maxLoopsPerBackend) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := int(next.Add(1)) - 1; k < len(idx); k = int(next.Add(1)) - 1 {
					i := idx[k]
					sub, _ := json.Marshal(AnalyzeRequest{
						Scheme: req.Scheme, Loops: loops[i : i+1], DeadlineMS: req.DeadlineMS,
					})
					st, hdr, b := rt.send(id, hop{method: http.MethodPost, path: r.URL.Path, body: sub})
					parts[i] = part{id: id, status: st, hdr: hdr, body: b}
				}
			}()
		}
	}
	wg.Wait()
	g.wg.Done()
	for _, p := range parts {
		if !rt.replicate(sid, p.id, p.hdr) {
			writeError(w, errUnreplicated(p.id, sid))
			return
		}
	}

	// Splice: each sub-reply must be the one-result reply for this
	// session and scheme; its result goes into the merged envelope as
	// bytes, through the writer the backends use, so the merged reply is
	// byte-identical to a single backend's batch reply. A 200 sub-reply
	// means its backend accepted req.Scheme, so it parses here too.
	scheme, _ := parseScheme(req.Scheme)
	head := append(appendAnalyzeHead(nil, sid, scheme.String()), '[')
	var deadlineMisses, coalesceHits int64
	results := make([][]byte, 0, len(parts))
	for _, p := range parts {
		if p.status != http.StatusOK {
			// Relay the first failure verbatim (deterministic 4xx from the
			// backend, or our 503 for one that died mid-request), unless
			// its backend lost the session.
			if rt.lost(p.id, sid, p.status) {
				writeError(w, errLost(p.id, sid))
				return
			}
			rt.relay(w, p.id, p.status, p.hdr, p.body)
			return
		}
		sub, ok := parseLoopReply(p.body, head)
		if !ok {
			writeError(w, &httpError{status: http.StatusBadGateway,
				detail: ErrorDetail{Code: "fleet_inconsistent",
					Message: fmt.Sprintf("backend %s returned a malformed loop result", p.id)}})
			return
		}
		results = append(results, sub.result)
		deadlineMisses += sub.deadlineMisses
		coalesceHits += sub.coalesceHits
	}
	writeAnalyzeResponse(w, sid, scheme.String(), results, deadlineMisses, coalesceHits)
}

// ---- aggregate endpoints ----

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := RouterHealth{Backends: map[string]string{}}
	upCount := 0
	rt.mu.Lock()
	members := append([]string(nil), rt.ids...)
	rt.mu.Unlock()
	for _, id := range members {
		if rt.isDown(id) {
			h.Backends[id] = "down"
			continue
		}
		if st, _, _ := rt.send(id, hop{method: http.MethodGet, path: "/healthz"}); st == http.StatusOK {
			h.Backends[id] = "ok"
			upCount++
		} else {
			h.Backends[id] = "down"
		}
	}
	rt.mu.Lock()
	h.Sessions = len(rt.sessions)
	rt.mu.Unlock()
	switch {
	case upCount == len(members):
		h.Status = "ok"
	case upCount > 0:
		h.Status = "degraded"
	default:
		h.Status = "down"
	}
	status := http.StatusOK
	if upCount == 0 {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := RouterMetrics{Backends: map[string]json.RawMessage{}}
	for _, id := range rt.upIDs() {
		if st, _, body := rt.send(id, hop{method: http.MethodGet, path: "/metrics"}); st == http.StatusOK {
			m.Backends[id] = json.RawMessage(body)
		}
	}
	rt.mu.Lock()
	var downIDs []string
	for _, id := range rt.ids {
		if rt.down[id] {
			downIDs = append(downIDs, id)
		}
	}
	members := append([]string(nil), rt.ids...)
	pending := rt.moveID
	var probes map[string]ProbeInfo
	if len(rt.probe) > 0 {
		probes = make(map[string]ProbeInfo, len(rt.probe))
		now := time.Now()
		for id, st := range rt.probe {
			probes[id] = ProbeInfo{
				Failures:  st.fails,
				BackoffMS: rt.backoffDelay(id, st.fails).Milliseconds(),
				NextInMS:  max(st.next.Sub(now).Milliseconds(), 0),
			}
		}
	}
	sessions := len(rt.sessions)
	rt.mu.Unlock()
	m.Router = RouterCounters{
		Proxied:      rt.proxied.Load(),
		Fanouts:      rt.fanouts.Load(),
		Refused:      rt.refused.Load(),
		Inconsistent: rt.inconsistent.Load(),
		Rejoins:      rt.rejoins.Load(),
		Joins:        rt.joins.Load(),
		Leaves:       rt.leaves.Load(),
		Rollbacks:    rt.rollbacks.Load(),
		Moved503:     rt.moved503.Load(),
		Dials:        rt.dials.Load(),
		Sessions:     sessions,
		Route:        rt.cfg.Route,
		Members:      members,
		Pending:      pending,
		Down:         downIDs,
		Probes:       probes,
	}
	writeJSON(w, http.StatusOK, m)
}

// ---- rejoin and catch-up ----

// Probe re-checks every down backend and rejoins the ones reconcile can
// catch up: a restarted (empty) backend gets the live sessions made
// again under their IDs, one that missed a create or a delete gets just
// that, and either gets its quarantine state re-synchronized. A backend
// that cannot be caught up stays down until a later probe.
func (rt *Router) Probe() {
	rt.probeDue(time.Time{})
}

// rejoin catches up one down backend and marks it up. The caller holds
// pmu.
func (rt *Router) rejoin(id string) {
	_, err := rt.catchUp(id)
	defer rt.bmu.Unlock()
	if err != nil {
		return
	}
	rt.mu.Lock()
	delete(rt.down, id)
	rt.mu.Unlock()
	rt.rejoins.Add(1)
}

// catchUp makes backend id hold exactly the live sessions without
// holding mutations up for the whole catch-up. A first reconcile runs
// while creates and deletes flow, which reach neither a down backend nor
// a pending joiner; then catchUp takes bmu, and a second reconcile sends
// only what changed meanwhile. It returns holding bmu, whatever the
// outcome, so the caller can mark id up or flip it into the ring before
// any mutation can miss it. It returns the creates and deletes both
// passes sent.
func (rt *Router) catchUp(id string) (int, error) {
	n, err := rt.reconcile(id)
	rt.bmu.Lock()
	if err != nil {
		return n, err
	}
	m, err := rt.reconcile(id)
	return n + m, err
}

// reconcile makes backend id hold exactly the live sessions. It deletes
// each session id holds that is not live or whose SessionInfo differs
// from the one its create returned, creates the live sessions id lacks
// under their IDs, in ID order, and brings every live session's
// quarantine on id and the up backends to their union. An empty
// backend, a diverged one and a joiner are all caught up this way. It
// returns how many creates and deletes it sent. The caller holds bmu,
// unless broadcasts do not reach id (a down backend or a pending
// joiner).
func (rt *Router) reconcile(id string) (int, error) {
	st, _, body := rt.send(id, hop{method: http.MethodGet, path: "/sessions", probe: true})
	var have []SessionInfo
	if st != http.StatusOK || json.Unmarshal(body, &have) != nil {
		return 0, fmt.Errorf("listing its sessions answered %d", st)
	}
	rt.mu.Lock()
	live := maps.Clone(rt.sessions)
	rt.mu.Unlock()

	sent := 0
	held := make(map[string]bool, len(have))
	for _, info := range have {
		if ls := live[info.ID]; ls != nil && reflect.DeepEqual(info, ls.info) {
			held[info.ID] = true
			continue
		}
		if st, _, _ := rt.send(id, hop{method: http.MethodDelete, path: "/sessions/" + info.ID, probe: true}); st != http.StatusNoContent {
			return sent, fmt.Errorf("deleting %s answered %d", info.ID, st)
		}
		sent++
	}
	var missing []string
	for sid := range live {
		if !held[sid] {
			missing = append(missing, sid)
		}
	}
	sortSessionIDs(missing)
	for _, sid := range missing {
		st, _, resp := rt.send(id, hop{method: http.MethodPost, path: "/sessions", body: live[sid].body, sid: sid, probe: true})
		var info SessionInfo
		if st != http.StatusCreated || json.Unmarshal(resp, &info) != nil || !reflect.DeepEqual(info, live[sid].info) {
			return sent, fmt.Errorf("creating %s answered %d", sid, st)
		}
		sent++
	}
	if _, synced := rt.syncQuarantine(id, live); !synced {
		return sent, errors.New("quarantine sync failed")
	}
	return sent, nil
}

// replicate carries a recovery event of live session sid from origin,
// the backend that replied hdr, to the session's copies on every up
// backend, when hdr names a quarantine fingerprint other than the one the
// router last replicated for the session. It syncs under bmu, so a
// catch-up reads the fleet's quarantine before a replication or after
// it, never in between. A backend that fails to take the union is marked
// down, and reconcile catches it up before it serves again. It reports
// false when origin's quarantine could not be read: the event may be on
// origin alone, so the reply must not reach the client, and no
// fingerprint is recorded.
func (rt *Router) replicate(sid, origin string, hdr http.Header) bool {
	fp := hdr.Get(quarantineHeader)
	if fp == "" {
		return true
	}
	var ls *liveSession
	stale := func() bool {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		ls = rt.sessions[sid]
		return ls != nil && ls.fp != fp
	}
	if !stale() {
		return true
	}
	rt.bmu.Lock()
	defer rt.bmu.Unlock()
	if !stale() {
		return true
	}
	read, synced := rt.syncQuarantine(origin, map[string]*liveSession{sid: ls})
	if !synced {
		rt.markDown(origin)
	}
	if !read {
		return false
	}
	rt.mu.Lock()
	ls.fp = fp
	rt.mu.Unlock()
	return true
}

// syncQuarantine brings every session in live, on every up backend and
// on backend id, to the union of their quarantines. It reads each
// backend's /metrics, merges each session's quarantine with
// recovery.MergeSnapshots, and reports to each backend that lacks part
// of the union what it lacks, through the observe path, which is
// monotone and idempotent. Because quarantine is monotone, the union is
// always a safe target state, whatever the event's origin (an observe
// report, a misspeculating execution, a module panic). A backend that
// does not list a session holds no copy to bring up to date: a delete
// removed it meanwhile. A backend other than id that fails is marked
// down and sent nothing more. It returns whether id's quarantine was
// read, so that the union includes it, and whether id was brought to
// the union.
func (rt *Router) syncQuarantine(id string, live map[string]*liveSession) (read, synced bool) {
	backends := rt.upIDs()
	if !slices.Contains(backends, id) {
		backends = append(backends, id)
	}
	read, synced = true, true
	skip := map[string]bool{}
	failed := func(b string) {
		skip[b] = true
		if b == id {
			synced = false
		} else {
			rt.markDown(b)
		}
	}
	held := map[string]map[string]SessionMetrics{}
	for _, b := range backends {
		st, _, body := rt.send(b, hop{method: http.MethodGet, path: "/metrics", probe: true})
		var m MetricsResponse
		if st != http.StatusOK || json.Unmarshal(body, &m) != nil {
			if b == id {
				read = false
			}
			failed(b)
			continue
		}
		held[b] = m.Sessions
	}
	sids := make([]string, 0, len(live))
	for sid := range live {
		sids = append(sids, sid)
	}
	sortSessionIDs(sids)
	for _, sid := range sids {
		snaps := make([]*recovery.Snapshot, 0, len(held))
		for _, sessions := range held {
			snaps = append(snaps, sessions[sid].Quarantine)
		}
		union := recovery.MergeSnapshots(snaps...)
		for _, b := range backends {
			sm, ok := held[b][sid]
			if !ok || skip[b] {
				continue
			}
			req := lacking(union, sm.Quarantine)
			if len(req.Violations) == 0 && len(req.Modules) == 0 {
				continue
			}
			body, _ := json.Marshal(req)
			if st, _, _ := rt.send(b, hop{method: http.MethodPost, path: "/sessions/" + sid + "/observe", body: body, probe: true}); st != http.StatusOK {
				failed(b)
			}
		}
	}
	return read, synced
}

// lacking returns the observe report of what union withdraws and has,
// a backend's quarantine of a session (nil: empty), does not.
func lacking(union recovery.Snapshot, has *recovery.Snapshot) ObserveRequest {
	var held recovery.Snapshot
	if has != nil {
		held = *has
	}
	var req ObserveRequest
	for _, k := range union.Asserts {
		if !slices.Contains(held.Asserts, k) {
			req.Violations = append(req.Violations, WireViolation{Assertion: k, Detail: "fleet: router sync"})
		}
	}
	for _, m := range union.Modules {
		if !slices.Contains(held.Modules, m) {
			req.Modules = append(req.Modules, m)
		}
	}
	return req
}
