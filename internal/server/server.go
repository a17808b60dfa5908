// Package server turns the SCAF library into a long-running analysis
// daemon. A session is one compiled, profiled MC program with a
// validated speculation plan and warm per-scheme orchestrator pools;
// clients POST dependence queries (single, or batched per loop) against
// it over HTTP/JSON.
//
// The serving layer adds exactly three things over the library path, and
// none of them may change answers:
//
//   - coalescing: identical deadline-free in-flight requests share one
//     resolution (flightGroup), stacked on top of the per-scheme
//     core.SharedCache;
//   - admission control: a bounded worker pool plus a bounded wait
//     queue; overflow is rejected with 429 + Retry-After rather than
//     queued without bound;
//   - deadlines: a per-request budget mapped onto the orchestrator's
//     timeout bail-out, re-armed before every dependence query.
//
// Responses are encoded by the same functions the equivalence tests
// apply to library results, so "HTTP answers are bit-identical to
// scaf.AnalyzeWith" is a byte-level property, not a summary-level one.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scaf/internal/core"
	"scaf/internal/fleet"
	"scaf/internal/persist"
)

// Config sizes the server.
type Config struct {
	// Workers bounds concurrently-executing analysis requests (default:
	// 4). Orchestrators are minted per concurrent request and stay warm,
	// so Workers also bounds each session's eventual pool size per scheme.
	Workers int
	// MaxQueue bounds requests waiting for a worker slot (default: 16).
	// Beyond it the server sheds load with 429 + Retry-After.
	MaxQueue int
	// DefaultDeadline, when positive, bounds requests that do not carry
	// their own deadline_ms. Deadline-bounded answers are never coalesced,
	// so leave this zero unless latency matters more than throughput.
	DefaultDeadline time.Duration
	// ExtraModules, when non-nil, mints additional modules appended to
	// every session orchestrator's ensemble — the fault-injection seam
	// (see recovery.Chaos). Called once per minted orchestrator; modules
	// it returns shared instances of must be safe for concurrent use.
	ExtraModules func() []core.Module
	// Fleet, when non-nil, joins this instance to a fleet: sessions share
	// canonical loop results through the instance's cache shard (see
	// fleet.go), and the segment transfer a membership move streams
	// through is mounted under /fleet/.
	Fleet *FleetConfig
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	return c
}

// Server is the analysis daemon's state: the session registry, the
// admission machinery, and the serving counters.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	sem   chan struct{}
	fleet *fleet.Tier // nil outside fleet mode

	// store is the shard's persistence layer (nil unless Fleet.CacheDir
	// is set). fleetOnce guards teardown: Shutdown can reach closeFleet
	// from more than one path, and the final snapshot must be written
	// exactly once, after the tier has stopped publishing.
	store       *persist.Store
	fleetOnce   sync.Once
	persistStop chan struct{}
	persistDone sync.WaitGroup

	// mu guards the lifecycle state: session registry and drain tracking.
	// nextID is the highest session number claimed so far, minted here or
	// handed over by a router.
	mu       sync.Mutex
	sessions map[string]*session
	nextID   int
	inflight int
	draining bool
	idle     chan struct{}

	flights flightGroup

	queued         atomic.Int64
	accepted       atomic.Int64
	rejected       atomic.Int64
	coalesceHits   atomic.Int64
	deadlineMisses atomic.Int64
	queriesServed  atomic.Int64
	loopsServed    atomic.Int64
	serverPanics   atomic.Int64
	observations   atomic.Int64
	executions     atomic.Int64
	fleetLoopHits  atomic.Int64
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.Workers),
		sessions: map[string]*session{},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /sessions", s.handleCreateSession)
	mux.HandleFunc("GET /sessions", s.handleListSessions)
	mux.HandleFunc("GET /sessions/{id}", s.handleGetSession)
	mux.HandleFunc("DELETE /sessions/{id}", s.handleDeleteSession)
	mux.HandleFunc("POST /sessions/{id}/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /sessions/{id}/query", s.handleQuery)
	mux.HandleFunc("POST /sessions/{id}/observe", s.handleObserve)
	mux.HandleFunc("POST /sessions/{id}/execute", s.handleExecute)
	if cfg.Fleet != nil {
		s.fleet = fleet.NewTier(fleet.TierConfig{Self: cfg.Fleet.Self, CacheBytes: cfg.Fleet.CacheBytes})
		// Segment transfer: the router streams warm cache segments
		// between backends during a live join/leave through these.
		mux.HandleFunc("POST /fleet/segment", s.handleFleetSegment)
		mux.HandleFunc("POST /fleet/restore", s.handleFleetRestore)
		if cfg.Fleet.CacheDir != "" {
			s.openPersist(cfg.Fleet.CacheDir, cfg.Fleet.SnapshotEvery)
		}
	}
	s.mux = mux
	return s
}

// openPersist attaches the durable tier: load the snapshot (revocations
// first, then entries under the shard's own revoked check, so nothing
// quarantined can resurrect), journal every future revocation, and —
// when a period is set — snapshot in the background. A directory that
// cannot be opened leaves the instance memory-only; the canonical-entry
// rule means that is only a warmth regression, never a wrongness one.
func (s *Server) openPersist(dir string, every time.Duration) {
	st, err := persist.NewStore(dir)
	if err != nil {
		return
	}
	s.store = st
	snap, ds := st.Load()
	inserted, rejected := s.fleet.Local().Restore(snap.Revoked, snap.Entries)
	st.NoteLoad(inserted, rejected+ds.Dropped)
	s.fleet.Local().SetRevokeHook(func(keys []string) {
		if err := st.AppendRevoked(keys); err != nil {
			// The revocation is live in memory but not yet durable — a
			// crash before the next successful snapshot could resurrect
			// the quarantined entries. AppendRevoked already counted it
			// (journal_errors in /metrics); log so the degradation is
			// operator-visible, not silent.
			log.Printf("persist: journaling %d revocation(s) failed, revocation is memory-only until next snapshot: %v", len(keys), err)
		}
	})
	if every > 0 {
		s.persistStop = make(chan struct{})
		s.persistDone.Add(1)
		go s.snapshotLoop(every)
	}
}

func (s *Server) snapshotLoop(period time.Duration) {
	defer s.persistDone.Done()
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.saveSnapshot()
		case <-s.persistStop:
			return
		}
	}
}

// saveSnapshot writes the local shard to disk. The entry list and the
// revoked set are each taken consistently under the shard lock, and any
// revocation racing the save is already durable in the journal, so the
// pair can never let a quarantined entry survive a reload.
func (s *Server) saveSnapshot() error {
	if s.store == nil || s.fleet == nil {
		return nil
	}
	local := s.fleet.Local()
	return s.store.Save(persist.Snapshot{Revoked: local.RevokedKeys(), Entries: local.SnapshotEntries()})
}

// Fleet returns the instance's cache tier (nil outside fleet mode) —
// the seam tests and the load generator read counters through.
func (s *Server) Fleet() *fleet.Tier { return s.fleet }

// Handler returns the daemon's HTTP handler. Every request is tracked
// for graceful drain; requests arriving after Shutdown begins get 503.
// Handler panics are isolated per request (see withRecovery).
func (s *Server) Handler() http.Handler {
	inner := s.withRecovery(s.mux)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.enter() {
			w.Header().Set("Retry-After", "5")
			writeError(w, &httpError{status: http.StatusServiceUnavailable,
				detail: ErrorDetail{Code: "draining", Message: "server is shutting down"}})
			return
		}
		defer s.exit()
		inner.ServeHTTP(w, r)
	})
}

// withRecovery converts a panicking handler into a 500 JSON error plus a
// server_panics increment: one faulty request degrades to an error
// response, it never takes the daemon (or its drain accounting) down.
// http.ErrAbortHandler is re-raised — it is net/http's sanctioned way to
// abort a response, not a fault.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.serverPanics.Add(1)
			writeError(w, &httpError{status: http.StatusInternalServerError,
				detail: ErrorDetail{Code: "internal_panic", Message: fmt.Sprint(rec)}})
		}()
		next.ServeHTTP(w, r)
	})
}

// enter registers one in-flight request; false means the server is
// draining and the request must be refused.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

func (s *Server) exit() {
	s.mu.Lock()
	s.inflight--
	if s.draining && s.inflight == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.mu.Unlock()
}

// Shutdown starts draining: new requests are refused with 503 and the
// call blocks until every in-flight request has completed (or ctx
// expires). Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if s.inflight == 0 {
		s.mu.Unlock()
		s.closeFleet()
		return nil
	}
	if s.idle == nil {
		s.idle = make(chan struct{})
	}
	idle := s.idle
	s.mu.Unlock()
	select {
	case <-idle:
		s.closeFleet()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown interrupted with requests in flight")
	}
}

// closeFleet stops the periodic snapshots and — when the shard is
// durable — writes the final drain snapshot. Exactly once, however many
// shutdown paths reach it.
func (s *Server) closeFleet() {
	s.fleetOnce.Do(func() {
		if s.persistStop != nil {
			close(s.persistStop)
			s.persistDone.Wait()
		}
		if s.store != nil {
			s.saveSnapshot()
			s.store.Close()
		}
	})
}

// PersistStats reports the durable tier's counters (nil when the
// instance is memory-only).
func (s *Server) PersistStats() *persist.Stats {
	if s.store == nil {
		return nil
	}
	st := s.store.Stats()
	return &st
}

// admit acquires a worker slot for one analysis request, waiting in the
// bounded queue if all slots are busy. It returns a release function, or
// an error (429 when the queue is full, 503 when the caller gave up).
func (s *Server) admit(r *http.Request) (func(), *httpError) {
	select {
	case s.sem <- struct{}{}:
		s.accepted.Add(1)
		return func() { <-s.sem }, nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.rejected.Add(1)
		he := &httpError{status: http.StatusTooManyRequests,
			detail: ErrorDetail{Code: "overloaded",
				Message: fmt.Sprintf("all %d workers busy and %d requests queued", s.cfg.Workers, s.cfg.MaxQueue)}}
		he.retryAfter = "1"
		return nil, he
	}
	select {
	case s.sem <- struct{}{}:
		s.queued.Add(-1)
		s.accepted.Add(1)
		return func() { <-s.sem }, nil
	case <-r.Context().Done():
		s.queued.Add(-1)
		s.rejected.Add(1)
		return nil, &httpError{status: http.StatusServiceUnavailable,
			detail: ErrorDetail{Code: "canceled", Message: "request canceled while queued"}}
	}
}

// lookup finds a session by path id.
func (s *Server) lookup(r *http.Request) (*session, *httpError) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		return nil, errNotFound("no session %q", id)
	}
	return sess, nil
}

// deadlineFor resolves a request's absolute deadline (zero: unbounded).
func (s *Server) deadlineFor(ms int64) time.Time {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultDeadline
	}
	if d <= 0 {
		return time.Time{}
	}
	return time.Now().Add(d)
}

const maxBodyBytes = 8 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) *httpError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errBadRequest("decoding request body: %v", err)
	}
	return nil
}

// sessionIDHeader carries a session ID on a create: the router sends the
// ID it minted, and the reply names the ID the create consumed.
const sessionIDHeader = "X-Scaf-Session-Id"

// quarantineHeader carries, on a 200 reply about a session, the
// session's quarantine fingerprint when its quarantine is not empty. A
// router compares it with the fingerprint it last replicated for the
// session; when they differ, it brings the session's other copies up to
// the union of their quarantines before it relays the reply, which it
// relays without the header.
const quarantineHeader = "X-Scaf-Quarantine"

// nameQuarantine sets quarantineHeader on w for sess, unless its
// quarantine is empty.
func (sess *session) nameQuarantine(w http.ResponseWriter) {
	if !sess.quarantine.Empty() {
		w.Header().Set(quarantineHeader, sess.fleetFingerprint())
	}
}

// sessionNum returns N for a session ID "s<N>" (N >= 1, no leading
// zeros) and false for any other string.
func sessionNum(id string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "s"))
	return n, err == nil && n > 0 && id == "s"+strconv.Itoa(n)
}

// sortSessionIDs orders session IDs by number, the order every backend
// lists its sessions in.
func sortSessionIDs(ids []string) {
	sort.Slice(ids, func(i, j int) bool {
		a, _ := sessionNum(ids[i])
		b, _ := sessionNum(ids[j])
		return a < b
	})
}

// createSession claims a session ID, builds the session (compile,
// profile, plan-validate, warm pools) and registers it. The ID is minted
// when a router sent one, else the instance's next; either way nextID
// ends at or past it, so a create without one never reuses an ID the
// instance was handed. Every outcome but one consumes the ID and returns
// it, a failed build included: a minted ID the instance already holds is
// refused with 409 and returns "".
func (s *Server) createSession(req *CreateSessionRequest, minted string) (string, *session, *httpError) {
	s.mu.Lock()
	id := minted
	switch {
	case id == "":
		s.nextID++
		id = "s" + strconv.Itoa(s.nextID)
	case s.sessions[id] != nil:
		s.mu.Unlock()
		return "", nil, errSessionHeld(id)
	default:
		n, _ := sessionNum(id)
		s.nextID = max(s.nextID, n)
	}
	s.mu.Unlock()

	sess, he := newSession(id, req, s.cfg, s.fleet)
	if he != nil {
		return id, nil, he
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sessions[id] != nil {
		// A concurrent create registered the ID while this one built.
		return "", nil, errSessionHeld(id)
	}
	s.sessions[id] = sess
	return id, sess, nil
}

func errSessionHeld(id string) *httpError {
	return &httpError{status: http.StatusConflict,
		detail: ErrorDetail{Code: "session_exists", Message: fmt.Sprintf("session %s already exists", id)}}
}

// Preload loads an embedded benchmark as a session outside the HTTP path
// (startup convenience; plan validation applies exactly as on POST
// /sessions).
func (s *Server) Preload(bench string) (SessionInfo, error) {
	_, sess, he := s.createSession(&CreateSessionRequest{Bench: bench}, "")
	if he != nil {
		return SessionInfo{}, fmt.Errorf("%s: %s", he.detail.Code, he.detail.Message)
	}
	return sess.info(), nil
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if he := decodeJSON(w, r, &req); he != nil {
		writeError(w, he)
		return
	}
	minted := r.Header.Get(sessionIDHeader)
	if _, ok := sessionNum(minted); minted != "" && !ok {
		writeError(w, errBadRequest("%s %q is not a session ID", sessionIDHeader, minted))
		return
	}
	release, he := s.admit(r)
	if he != nil {
		writeError(w, he)
		return
	}
	defer release()

	id, sess, he := s.createSession(&req, minted)
	if id != "" {
		w.Header().Set(sessionIDHeader, id)
	}
	if he != nil {
		writeError(w, he)
		return
	}
	writeJSON(w, http.StatusCreated, sess.info())
}

// registered returns the registered sessions in ID order.
func (s *Server) registered() []*session {
	s.mu.Lock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	sortSessionIDs(ids)
	out := make([]*session, len(ids))
	for i, id := range ids {
		out[i] = s.sessions[id]
	}
	s.mu.Unlock()
	return out
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	sessions := s.registered()
	out := make([]SessionInfo, len(sessions))
	for i, sess := range sessions {
		out[i] = sess.info()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sess, he := s.lookup(r)
	if he != nil {
		writeError(w, he)
		return
	}
	writeJSON(w, http.StatusOK, sess.info())
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	_, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if !ok {
		writeError(w, errNotFound("no session %q", id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	sess, he := s.lookup(r)
	if he != nil {
		writeError(w, he)
		return
	}
	var req AnalyzeRequest
	if he := decodeJSON(w, r, &req); he != nil {
		writeError(w, he)
		return
	}
	scheme, he := parseScheme(req.Scheme)
	if he != nil {
		writeError(w, he)
		return
	}
	loops := sess.hot
	if len(req.Loops) > 0 {
		loops = loops[:0:0]
		for _, name := range req.Loops {
			l, ok := sess.loops[name]
			if !ok {
				writeError(w, errNotFound("no hot loop %q in session %s", name, sess.id))
				return
			}
			loops = append(loops, l)
		}
	}

	release, he := s.admit(r)
	if he != nil {
		writeError(w, he)
		return
	}
	defer release()

	deadline := s.deadlineFor(req.DeadlineMS)
	var results [][]byte
	var deadlineMisses, coalesceHits int64
	for _, l := range loops {
		var b []byte
		if deadline.IsZero() {
			// Deadline-free: the answer is a pure function of (session,
			// scheme, loop, recovery epoch), so concurrent identical
			// batches share one resolution. The epoch component keeps a
			// post-recovery request from joining a computation started
			// before an observe report landed.
			key := "analyze|" + sess.id + "|e" + strconv.FormatInt(sess.epoch.Load(), 10) +
				"|" + scheme.String() + "|" + l.Name()
			l := l
			v, shared, _ := s.flights.do(key, func() (any, error) {
				// Fleet lookaside: the loop's served bytes, keyed by
				// (digest, scheme, quarantine fingerprint, loop), may have
				// been resolved already by a session of the same program
				// here, restored from a snapshot or streamed in by a move.
				var fleetKey string
				if sess.fleet != nil {
					fleetKey = sess.fleetLoopKey(scheme, l)
					if b, ok := sess.fleetLoopLookup(fleetKey); ok {
						s.fleetLoopHits.Add(1)
						return b, nil
					}
				}
				wr, delta := sess.analyzeLoop(scheme, l, time.Time{})
				b := encodeLoopResult(wr)
				if sess.fleet != nil {
					sess.fleetLoopPublish(fleetKey, scheme, l, wr, b, delta)
				}
				return b, nil
			})
			if shared {
				s.coalesceHits.Add(1)
				coalesceHits++
			}
			b = v.([]byte)
		} else {
			wr, delta := sess.analyzeLoop(scheme, l, deadline)
			b = encodeLoopResult(wr)
			deadlineMisses += delta.Timeouts
			s.deadlineMisses.Add(delta.Timeouts)
		}
		results = append(results, b)
		s.loopsServed.Add(1)
	}
	sess.nameQuarantine(w)
	writeAnalyzeResponse(w, sess.id, scheme.String(), results, deadlineMisses, coalesceHits)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sess, he := s.lookup(r)
	if he != nil {
		writeError(w, he)
		return
	}
	var req QueryRequest
	if he := decodeJSON(w, r, &req); he != nil {
		writeError(w, he)
		return
	}
	scheme, he := parseScheme(req.Scheme)
	if he != nil {
		writeError(w, he)
		return
	}
	l, ok := sess.loops[req.Loop]
	if !ok {
		writeError(w, errNotFound("no hot loop %q in session %s", req.Loop, sess.id))
		return
	}
	rel, err := ParseRel(req.Rel)
	if err != nil {
		writeError(w, errBadRequest("%v", err))
		return
	}
	i1, he := sess.lookupInstr(req.I1)
	if he != nil {
		writeError(w, he)
		return
	}
	i2, he := sess.lookupInstr(req.I2)
	if he != nil {
		writeError(w, he)
		return
	}

	release, he := s.admit(r)
	if he != nil {
		writeError(w, he)
		return
	}
	defer release()

	deadline := s.deadlineFor(req.DeadlineMS)
	resp := QueryResponse{Session: sess.id, Scheme: scheme.String()}
	if deadline.IsZero() {
		key := "query|" + sess.id + "|e" + strconv.FormatInt(sess.epoch.Load(), 10) +
			"|" + scheme.String() + "|" + l.Name() + "|" + req.I1 + "|" + req.I2 + "|" + rel.String()
		v, shared, _ := s.flights.do(key, func() (any, error) {
			wq, _ := sess.resolveQuery(scheme, l, i1, i2, rel, time.Time{})
			return wq, nil
		})
		if shared {
			s.coalesceHits.Add(1)
			resp.Coalesced = true
		}
		resp.Query = v.(WireQuery)
	} else {
		wq, delta := sess.resolveQuery(scheme, l, i1, i2, rel, deadline)
		resp.Query = wq
		if delta.Timeouts > 0 {
			resp.DeadlineMiss = true
			s.deadlineMisses.Add(delta.Timeouts)
		}
	}
	s.queriesServed.Add(1)
	sess.nameQuarantine(w)
	writeJSON(w, http.StatusOK, resp)
}

// handleObserve ingests a production misspeculation report: quarantine
// the violated assertions / withdrawn modules, invalidate every cached
// answer predicated on them, re-resolve under the degraded plan (see
// session.observe).
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	sess, he := s.lookup(r)
	if he != nil {
		writeError(w, he)
		return
	}
	var req ObserveRequest
	if he := decodeJSON(w, r, &req); he != nil {
		writeError(w, he)
		return
	}
	release, he := s.admit(r)
	if he != nil {
		writeError(w, he)
		return
	}
	defer release()

	resp, he := sess.observe(&req)
	if he != nil {
		writeError(w, he)
		return
	}
	s.observations.Add(1)
	sess.nameQuarantine(w)
	writeJSON(w, http.StatusOK, resp)
}

// handleExecute runs the session's program under the speculative-parallel
// runtime (see session.execute). Misspeculation is a 200 with recovery
// visible in the report; only a program that cannot execute is an error.
func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	sess, he := s.lookup(r)
	if he != nil {
		writeError(w, he)
		return
	}
	var req ExecuteRequest
	if he := decodeJSON(w, r, &req); he != nil {
		writeError(w, he)
		return
	}
	release, he := s.admit(r)
	if he != nil {
		writeError(w, he)
		return
	}
	defer release()

	resp, he := sess.execute(&req)
	if he != nil {
		writeError(w, he)
		return
	}
	s.executions.Add(1)
	sess.nameQuarantine(w)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Sessions: n})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sessions := s.registered()
	s.mu.Lock()
	draining := s.draining
	inflight := s.inflight
	s.mu.Unlock()

	resp := MetricsResponse{
		Server: ServerCounters{
			Accepted:       s.accepted.Load(),
			Rejected:       s.rejected.Load(),
			QueueDepth:     s.queued.Load(),
			InFlight:       int64(inflight),
			CoalesceHits:   s.coalesceHits.Load(),
			DeadlineMisses: s.deadlineMisses.Load(),
			QueriesServed:  s.queriesServed.Load(),
			LoopsServed:    s.loopsServed.Load(),
			ServerPanics:   s.serverPanics.Load(),
			Observations:   s.observations.Load(),
			Executions:     s.executions.Load(),
			FleetLoopHits:  s.fleetLoopHits.Load(),
			Sessions:       len(sessions),
			Draining:       draining,
		},
		Sessions: map[string]SessionMetrics{},
	}
	if s.fleet != nil {
		ts := s.fleet.Stats()
		resp.Fleet = &ts
	}
	resp.Persist = s.PersistStats()
	for _, sess := range sessions {
		resp.Sessions[sess.id] = sess.metricsSnapshot()
	}
	writeJSON(w, http.StatusOK, resp)
}

// NewHTTPServer wraps h in an http.Server hardened for untrusted
// clients: header/body read timeouts bound slow-loris uploads and
// IdleTimeout reaps abandoned keep-alive connections, so a stalled
// client cannot pin a connection forever. No WriteTimeout is set —
// analysis responses can legitimately take long to compute; response
// time is governed by request deadlines and admission control instead.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // client gone mid-write: nothing useful to do
}

func writeError(w http.ResponseWriter, he *httpError) {
	if he.retryAfter != "" {
		w.Header().Set("Retry-After", he.retryAfter)
	}
	writeJSON(w, he.status, ErrorResponse{Error: he.detail})
}
