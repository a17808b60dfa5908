package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scaf/internal/fleet"
	"scaf/internal/persist"
	"scaf/internal/recovery"
)

// The fleet's front tier: a Router speaks the exact scaf-serve HTTP
// surface and spreads it across N backend instances. Session mutations
// (create, delete) broadcast to every backend in one serialized order, so
// the backends' session registries — and their sequential session IDs —
// stay identical; read traffic (analyze, query) shards across backends by
// consistent hash (or round-robin), which is sound because every answer
// is a pure function of (session state, proposition): any backend serves
// the same bytes, the fleet cache tier only changes who computes them.
//
// There is deliberately no failover: a request for a down backend's shard
// is refused with 503 + Retry-After rather than silently re-homed, so a
// partition degrades capacity, never placement determinism. A restarted
// backend is caught up by replaying the session journal (rebuilding the
// same IDs in the same order) and re-synchronizing quarantine state from
// a live peer before it takes traffic again.

// RouterConfig configures a fleet front tier.
type RouterConfig struct {
	// Backends maps backend IDs to base URLs (e.g. "b0" ->
	// "http://127.0.0.1:8347"). IDs are the shard names.
	Backends map[string]string
	// Route picks the read-routing policy: "hash" (default; consistent
	// hash, deterministic placement) or "rr" (round-robin, best spread).
	Route string
	// Timeout bounds each proxied backend request (0: unbounded — analyze
	// batches can legitimately run long).
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
	// CacheDir, when non-empty, persists the router's session journal and
	// session→loops map there on Close and loads them on boot, so a
	// restarted router keeps its rejoin power: it can still replay the
	// full mutation history into an empty backend. Validated with the
	// same checksummed framing as the cache snapshots — a corrupt file
	// degrades to the valid prefix (at worst a cold router), never a
	// wrong replay. Membership changes are persisted too, so a restarted
	// router serves the post-elasticity fleet, not the boot-time one.
	CacheDir string
}

const defaultDrainTimeout = 30 * time.Second

// routerJournalEntry is one replayable session mutation.
type routerJournalEntry struct {
	method, path string
	body         []byte
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
	hc  *http.Client
	mux *http.ServeMux

	// bmu serializes session mutations, rejoins, and the fenced phase of
	// membership moves: every backend sees creates and deletes in the
	// same order, which is what keeps their sequential session-ID
	// counters aligned.
	bmu sync.Mutex

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
	sessions map[string][]string // session id -> hot loop names
	journal  []routerJournalEntry

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
		sessions: map[string][]string{},
		stop:     make(chan struct{}),
	}
	rt.hc = &http.Client{Timeout: cfg.Timeout, Transport: fleet.NewTransport(&rt.dials)}
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
	mux.HandleFunc("POST /fleet/join", rt.handleJoin)
	mux.HandleFunc("POST /fleet/leave", rt.handleLeave)
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

// routerJournalRecord / routerSessionRecord are the on-disk forms of
// the router's replay state.
type routerJournalRecord struct {
	Method string `json:"method"`
	Path   string `json:"path"`
	Body   []byte `json:"body,omitempty"`
}

type routerSessionRecord struct {
	ID    string   `json:"id"`
	Loops []string `json:"loops"`
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

// savePersist writes the journal and session map with the persist
// framing (atomic temp+rename via a full re-encode — the journal is
// small relative to cache shards, and a single atomic file keeps the
// two structures consistent with each other).
func (rt *Router) savePersist() {
	if err := os.MkdirAll(rt.cfg.CacheDir, 0o755); err != nil {
		log.Printf("router: persist save: %v", err)
		return
	}
	rt.mu.Lock()
	records := make([]persist.Record, 0, len(rt.ids)+len(rt.journal)+len(rt.sessions))
	for _, id := range rt.ids {
		p, _ := json.Marshal(routerMemberRecord{ID: id, URL: rt.base[id]})
		records = append(records, persist.Record{Kind: persist.KindMembers, Payload: p})
	}
	for _, je := range rt.journal {
		p, _ := json.Marshal(routerJournalRecord{Method: je.method, Path: je.path, Body: je.body})
		records = append(records, persist.Record{Kind: persist.KindJournal, Payload: p})
	}
	sids := make([]string, 0, len(rt.sessions))
	for sid := range rt.sessions {
		sids = append(sids, sid)
	}
	sort.Strings(sids)
	for _, sid := range sids {
		p, _ := json.Marshal(routerSessionRecord{ID: sid, Loops: rt.sessions[sid]})
		records = append(records, persist.Record{Kind: persist.KindSessions, Payload: p})
	}
	rt.mu.Unlock()
	if err := persist.WriteFileAtomic(rt.cfg.CacheDir, routerSnapFile, persist.EncodeFile(records)); err != nil {
		log.Printf("router: persist save: %v", err)
	}
}

// loadPersist restores the journal and session map from a prior
// graceful Close. Corruption degrades to the valid prefix; since the
// journal is replayed only into empty backends (rejoin), a short
// journal can at worst fail a future rejoin's session-set check — it
// cannot desynchronize a live fleet.
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
		case persist.KindJournal:
			var jr routerJournalRecord
			if err := json.Unmarshal(r.Payload, &jr); err != nil {
				return
			}
			rt.journal = append(rt.journal, routerJournalEntry{method: jr.Method, path: jr.Path, body: jr.Body})
		case persist.KindSessions:
			var sr routerSessionRecord
			if err := json.Unmarshal(r.Payload, &sr); err != nil {
				return
			}
			rt.sessions[sr.ID] = sr.Loops
		default:
			return
		}
	}
}

// Handler returns the router's HTTP handler (the scaf-serve surface).
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the background prober, drops pooled backend connections,
// and persists the session journal when a CacheDir is configured.
// Closing the pool matters for orderly teardown: a spare never-used
// connection parked on a backend reads as StateNew there, and
// http.Server.Shutdown only reaps those after a five-second grace.
// Idempotent and safe under concurrent callers; every Close returns
// only after the teardown has completed exactly once.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() {
		close(rt.stop)
		rt.done.Wait()
		rt.hc.CloseIdleConnections()
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
		rt.tryRejoin(id)
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

// queryKey places one dependence query of session sid on the ring.
func queryKey(sid string, req QueryRequest) string {
	return "q|" + sid + "|" + req.Scheme + "|" + req.Loop + "|" + req.I1 + "|" + req.I2 + "|" + req.Rel
}

// analyzeKey places one loop of session sid's analyze batch on the ring.
func analyzeKey(sid, scheme, loop string) string {
	return "a|" + sid + "|" + scheme + "|" + loop
}

// AnalyzeOwner returns the member that hash routing sends loop to when
// it fans out an analyze of session sid under scheme (spelled as in the
// request), on the current ring.
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
		he := &httpError{status: http.StatusServiceUnavailable,
			detail: ErrorDetail{Code: "backend_down",
				Message: fmt.Sprintf("segment owned by %s is moving; retry shortly", id)}}
		he.retryAfter = "1"
		return "", he
	}
	if down {
		rt.refused.Add(1)
		he := &httpError{status: http.StatusServiceUnavailable,
			detail: ErrorDetail{Code: "backend_down",
				Message: fmt.Sprintf("backend %s owns this shard and is down", id)}}
		he.retryAfter = "1"
		return "", he
	}
	return id, nil
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
	he := &httpError{status: http.StatusServiceUnavailable,
		detail: ErrorDetail{Code: "backend_down", Message: "no live backends"}}
	he.retryAfter = "1"
	return he
}

// baseURL resolves a backend's base URL under the membership lock.
func (rt *Router) baseURL(id string) string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.base[id]
}

// send issues one backend request. A transport error marks the backend
// down and is reported as (0, nil, nil); a reply longer than
// maxPeerResponse is reported as a 502 reply_too_large.
func (rt *Router) send(id, method, path string, body []byte) (int, http.Header, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, rt.baseURL(id)+path, rd)
	if err != nil {
		rt.markDown(id)
		return 0, nil, nil
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		rt.markDown(id)
		return 0, nil, nil
	}
	defer resp.Body.Close()
	// One byte past the limit tells a reply that fits from one that was
	// cut; a cut reply must not reach the client under the backend's
	// status. The backend did answer, so it stays up.
	raw, err := readReply(resp, maxPeerResponse)
	if err != nil {
		rt.markDown(id)
		return 0, nil, nil
	}
	rt.proxied.Add(1)
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

// relay writes a backend response through verbatim; status 0 (transport
// failure) becomes a 503.
func (rt *Router) relay(w http.ResponseWriter, id string, status int, hdr http.Header, body []byte) {
	if status == 0 {
		he := &httpError{status: http.StatusServiceUnavailable,
			detail: ErrorDetail{Code: "backend_down",
				Message: fmt.Sprintf("backend %s did not answer", id)}}
		he.retryAfter = "1"
		writeError(w, he)
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
// over.
func (rt *Router) broadcast(method, path string, body []byte) (int, http.Header, []byte, *httpError) {
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
			st, hdr, b := rt.send(id, method, path, body)
			replies[i] = reply{id: id, status: st, hdr: hdr, body: b}
		}(i, id)
	}
	wg.Wait()

	first := -1
	for i, rp := range replies {
		if rp.status == 0 {
			// Died mid-broadcast: the journal replay at rejoin restores it.
			continue
		}
		if first < 0 {
			first = i
			continue
		}
		f := replies[first]
		if rp.status != f.status || !bytes.Equal(rp.body, f.body) {
			rt.inconsistent.Add(1)
			return 0, nil, nil, &httpError{status: http.StatusBadGateway,
				detail: ErrorDetail{Code: "fleet_inconsistent",
					Message: fmt.Sprintf("backends %s and %s disagree on %s %s (%d vs %d)",
						f.id, rp.id, method, path, f.status, rp.status)}}
		}
	}
	if first < 0 {
		return 0, nil, nil, rt.errNoBackends()
	}
	return replies[first].status, replies[first].hdr, replies[first].body, nil
}

func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	rt.bmu.Lock()
	defer rt.bmu.Unlock()

	status, hdr, resp, he := rt.broadcast(http.MethodPost, "/sessions", body)
	if he != nil {
		writeError(w, he)
		return
	}
	// Journal every create, including failed ones: a rejected create still
	// consumed a session-ID counter slot on the live backends, and replay
	// must reproduce that on a restarted one.
	rt.mu.Lock()
	rt.journal = append(rt.journal, routerJournalEntry{method: http.MethodPost, path: "/sessions", body: body})
	rt.mu.Unlock()

	if status == http.StatusCreated {
		var info SessionInfo
		if err := json.Unmarshal(resp, &info); err == nil && info.ID != "" {
			loops := make([]string, 0, len(info.HotLoops))
			for _, l := range info.HotLoops {
				loops = append(loops, l.Name)
			}
			rt.mu.Lock()
			rt.sessions[info.ID] = loops
			rt.mu.Unlock()
		}
	}
	rt.relay(w, "", status, hdr, resp)
}

func (rt *Router) handleDelete(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("id")
	path := "/sessions/" + sid
	rt.bmu.Lock()
	defer rt.bmu.Unlock()

	status, hdr, resp, he := rt.broadcast(http.MethodDelete, path, nil)
	if he != nil {
		writeError(w, he)
		return
	}
	rt.mu.Lock()
	rt.journal = append(rt.journal, routerJournalEntry{method: http.MethodDelete, path: path})
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
	st, hdr, body := rt.send(id, r.Method, r.URL.Path, nil)
	rt.relay(w, id, st, hdr, body)
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("id")
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	g := rt.beginRead()
	defer g.wg.Done()
	var req QueryRequest
	// Lenient decode for the routing key only; the backend enforces the
	// strict schema and produces the deterministic error if it is bad.
	_ = json.Unmarshal(body, &req)
	id, he := rt.pick(queryKey(sid, req))
	if he != nil {
		writeError(w, he)
		return
	}
	st, hdr, resp := rt.send(id, http.MethodPost, r.URL.Path, body)
	rt.relay(w, id, st, hdr, resp)
}

func (rt *Router) handleMutation(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("id")
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	g := rt.beginRead()
	defer g.wg.Done()
	id, he := rt.owner(sid)
	if he != nil {
		writeError(w, he)
		return
	}
	st, hdr, resp := rt.send(id, http.MethodPost, r.URL.Path, body)
	rt.relay(w, id, st, hdr, resp)
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
	defer g.wg.Done()
	var req AnalyzeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		// Forward undecodable bodies to one backend for its strict,
		// deterministic 400.
		id, he := rt.pickHash("s|" + sid)
		if he != nil {
			writeError(w, he)
			return
		}
		st, hdr, resp := rt.send(id, http.MethodPost, r.URL.Path, body)
		rt.relay(w, id, st, hdr, resp)
		return
	}

	loops := req.Loops
	if len(loops) == 0 {
		rt.mu.Lock()
		loops = append([]string(nil), rt.sessions[sid]...)
		rt.mu.Unlock()
	}
	if len(loops) == 0 {
		// Unknown session or a session with no hot loops: one backend
		// produces the deterministic answer (404, or an empty batch).
		id, he := rt.pickHash("s|" + sid)
		if he != nil {
			writeError(w, he)
			return
		}
		st, hdr, resp := rt.send(id, http.MethodPost, r.URL.Path, body)
		rt.relay(w, id, st, hdr, resp)
		return
	}

	// Place every loop first; a down shard refuses the whole batch before
	// any backend spends work on it.
	targets := make([]string, len(loops))
	for i, loop := range loops {
		id, he := rt.pick(analyzeKey(sid, req.Scheme, loop))
		if he != nil {
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
					st, hdr, b := rt.send(id, http.MethodPost, r.URL.Path, sub)
					parts[i] = part{id: id, status: st, hdr: hdr, body: b}
				}
			}()
		}
	}
	wg.Wait()

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
			// backend, or our 503 for one that died mid-request).
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
		if st, _, _ := rt.send(id, http.MethodGet, "/healthz", nil); st == http.StatusOK {
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
		if st, _, body := rt.send(id, http.MethodGet, "/metrics", nil); st == http.StatusOK {
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

// ---- rejoin ----

// Probe re-checks every down backend and rejoins the ones that answer:
// a restarted (empty) backend gets the session journal replayed — the
// same mutations in the same order rebuild the same session IDs — and its
// quarantine state re-synchronized from a live peer; a backend that was
// only unreachable (state intact) is simply marked up. A backend whose
// session registry matches neither is left down: its state cannot be
// reconciled without operator intervention.
func (rt *Router) Probe() {
	rt.probeDue(time.Time{})
}

func (rt *Router) tryRejoin(id string) {
	// Serialize against mutations: the journal must not grow mid-replay.
	rt.bmu.Lock()
	defer rt.bmu.Unlock()

	if st, _, _ := rt.probeSend(id, http.MethodGet, "/healthz", nil); st != http.StatusOK {
		return
	}
	st, _, body := rt.probeSend(id, http.MethodGet, "/sessions", nil)
	if st != http.StatusOK {
		return
	}
	var have []SessionInfo
	if err := json.Unmarshal(body, &have); err != nil {
		return
	}

	rt.mu.Lock()
	want := make(map[string]bool, len(rt.sessions))
	for sid := range rt.sessions {
		want[sid] = true
	}
	journal := append([]routerJournalEntry(nil), rt.journal...)
	rt.mu.Unlock()

	switch {
	case len(have) == 0 && len(journal) > 0:
		// Fresh restart: replay the journal to rebuild the registry with
		// the same session-ID sequence.
		for _, e := range journal {
			if st, _, _ := rt.probeSend(id, e.method, e.path, e.body); st == 0 {
				return // died again mid-replay; next probe retries from scratch
			}
		}
		if !rt.syncQuarantine(id, want) {
			return
		}
	case matchesSessionSet(have, want):
		// Transient unreachability: state intact, nothing to replay.
	default:
		return
	}

	rt.mu.Lock()
	delete(rt.down, id)
	rt.mu.Unlock()
	rt.rejoins.Add(1)
	// Best effort: teach the rejoined backend the current membership —
	// it may have been away across a join or leave and its cache tier's
	// peer set would otherwise still reflect the old fleet.
	rt.pushMembers(id)
}

// pushMembers sends the full membership map to one backend's cache-tier
// membership endpoint. Best effort: a backend running without the fleet
// tier answers 404, and peer-set drift costs warmth, never correctness.
func (rt *Router) pushMembers(id string) {
	rt.mu.Lock()
	req := fleet.MembersRequest{Add: make(map[string]string, len(rt.base))}
	for mid, u := range rt.base {
		req.Add[mid] = u
	}
	rt.mu.Unlock()
	b, _ := json.Marshal(req)
	rt.probeSend(id, http.MethodPost, "/fleet/members", b)
}

func matchesSessionSet(have []SessionInfo, want map[string]bool) bool {
	if len(have) != len(want) {
		return false
	}
	for _, info := range have {
		if !want[info.ID] {
			return false
		}
	}
	return true
}

// syncQuarantine replays quarantine state onto a rejoined or joining
// backend, merged across every live peer's /metrics: quarantine is
// monotone, so the union over peers is always a safe target state, and
// merging protects the sync against one peer that itself missed a
// broadcast. Every quarantined assertion and module of every session is
// re-reported through the normal observe path, which is monotone and
// idempotent. This covers events from any origin (observe reports,
// misspeculating executions, module panics) that fired while the
// backend was away. At least one peer must answer; peers that do not
// are skipped (their state is a subset of the union by monotonicity or
// they are dying, and a dying peer must not block recovery).
func (rt *Router) syncQuarantine(id string, sessions map[string]bool) bool {
	up := rt.upIDs()
	if len(up) == 0 {
		return true // nobody to sync from; the empty fleet has no quarantine
	}
	perSession := map[string][]*recovery.Snapshot{}
	answered := 0
	for _, peer := range up {
		st, _, body := rt.probeSend(peer, http.MethodGet, "/metrics", nil)
		if st != http.StatusOK {
			continue
		}
		var m MetricsResponse
		if err := json.Unmarshal(body, &m); err != nil {
			continue
		}
		answered++
		for sid, sm := range m.Sessions {
			if !sessions[sid] || sm.Quarantine == nil {
				continue
			}
			perSession[sid] = append(perSession[sid], sm.Quarantine)
		}
	}
	if answered == 0 {
		return false
	}
	for sid, snaps := range perSession {
		merged := recovery.MergeSnapshots(snaps...)
		if len(merged.Asserts) == 0 && len(merged.Modules) == 0 {
			continue
		}
		req := ObserveRequest{Modules: merged.Modules}
		for _, k := range merged.Asserts {
			req.Violations = append(req.Violations, WireViolation{
				Assertion: k, Detail: "fleet: rejoin sync"})
		}
		b, _ := json.Marshal(req)
		if st, _, _ := rt.probeSend(id, http.MethodPost, "/sessions/"+sid+"/observe", b); st != http.StatusOK {
			return false
		}
	}
	return true
}

// probeSend is send without the down-marking side effect: probe and
// replay traffic to a backend that is already down must not churn state.
func (rt *Router) probeSend(id, method, path string, body []byte) (int, http.Header, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, rt.baseURL(id)+path, rd)
	if err != nil {
		return 0, nil, nil
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return 0, nil, nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerResponse))
	if err != nil {
		return 0, nil, nil
	}
	return resp.StatusCode, resp.Header, raw
}
