package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"scaf"
	"scaf/internal/fleet"
	"scaf/internal/persist"
)

// bootPersistServer boots a persistent fleet-of-one instance over dir.
// Callers own the teardown: drainPersist writes the snapshot, a bare
// ts.Close simulates a crash (no snapshot, journal already durable).
func bootPersistServer(dir string) (*Server, *httptest.Server) {
	srv := New(Config{Fleet: &FleetConfig{Self: "p0", CacheDir: dir}})
	return srv, httptest.NewServer(srv.Handler())
}

func drainPersist(t *testing.T, srv *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServerWarmRestartByteIdentical is the tentpole property end to
// end: analyze on a persistent instance, drain (snapshot), boot a new
// instance from the same directory, and the warm instance must serve
// byte-identical results — from the loaded entries, not by recomputing.
func TestServerWarmRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}

	srv1, ts1 := bootPersistServer(dir)
	info1 := createSession(t, ts1.URL, req)
	gold := analyzeJSON(t, ts1.URL, info1.ID)
	entriesBefore := srv1.fleet.Local().Len()
	if entriesBefore == 0 {
		t.Fatal("vacuous: analyze published nothing to the shard")
	}
	drainPersist(t, srv1, ts1)

	srv2, ts2 := bootPersistServer(dir)
	defer drainPersist(t, srv2, ts2)
	if got := srv2.fleet.Local().Len(); got != entriesBefore {
		t.Fatalf("warm boot restored %d entries, want %d", got, entriesBefore)
	}
	st := srv2.PersistStats()
	if st == nil || st.Loaded != int64(entriesBefore) || st.Rejected != 0 {
		t.Fatalf("persist stats after clean load: %+v", st)
	}

	// A fresh session on the warm instance (same create body, so same
	// digest and a clean fingerprint on both sides) must be served from
	// the snapshot: same bytes, and the loop lookaside must hit.
	hits0 := srv2.fleetLoopHits.Load()
	info2 := createSession(t, ts2.URL, req)
	if got := analyzeJSON(t, ts2.URL, info2.ID); !bytes.Equal(got, gold) {
		t.Fatalf("warm analyze diverged from cold gold\ngot  %.300s\nwant %.300s", got, gold)
	}
	if srv2.fleetLoopHits.Load() == hits0 {
		t.Fatal("warm instance recomputed instead of serving the loaded snapshot")
	}

	// The counters are operator-visible.
	_, raw := do(t, ts2.URL, "GET", "/metrics", nil)
	m := decode[MetricsResponse](t, raw)
	if m.Persist == nil || m.Persist.Loaded == 0 {
		t.Fatalf("/metrics does not surface persist counters: %.300s", raw)
	}
}

// TestServerRestartStraddlingObserve restarts across a quarantine: an
// assertion is violated, then the instance drains and a new one boots
// from its directory. The revoked entries must be a physical miss after
// reload — absent from the shard, un-reinsertable — and a fresh session
// must reproduce the clean-slate bytes by fresh computation.
func TestServerRestartStraddlingObserve(t *testing.T) {
	dir := t.TempDir()
	req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}

	srv1, ts1 := bootPersistServer(dir)
	info1 := createSession(t, ts1.URL, req)
	gold := analyzeJSON(t, ts1.URL, info1.ID)

	var results []WireLoopResult
	if err := json.Unmarshal(gold, &results); err != nil {
		t.Fatal(err)
	}
	keys := harvestAsserts(AnalyzeResponse{Results: results})
	if len(keys) == 0 {
		t.Fatal("vacuous test: no served answer was predicated on an assertion")
	}
	var vs []WireViolation
	for _, k := range keys {
		vs = append(vs, WireViolation{Assertion: k, Detail: "observed pre-restart"})
	}
	if status, raw := do(t, ts1.URL, "POST", "/sessions/"+info1.ID+"/observe", ObserveRequest{Violations: vs}); status != http.StatusOK {
		t.Fatalf("observe: status %d, body %s", status, raw)
	}
	drainPersist(t, srv1, ts1)

	srv2, ts2 := bootPersistServer(dir)
	defer drainPersist(t, srv2, ts2)
	local := srv2.fleet.Local()

	// Physical-miss proof, three ways: no surviving entry is predicated
	// on a revoked key; the revocations themselves were restored; and the
	// shard refuses to re-admit a predicated entry.
	revoked := make(map[string]bool, len(keys))
	for _, k := range keys {
		revoked[k] = true
	}
	for _, e := range local.SnapshotEntries() {
		for _, a := range e.Asserts {
			if revoked[a] {
				t.Fatalf("entry %q predicated on revoked %q resurrected across restart", e.Key, a)
			}
		}
	}
	if !local.AnyRevoked(keys) {
		t.Fatal("revoked set did not survive the restart")
	}
	if local.Put(fleet.Entry{Key: "d|s|fp|probe", Value: []byte("{}"), Asserts: keys[:1]}) {
		t.Fatal("shard re-admitted an entry predicated on a revoked assertion")
	}

	// Clean-slate semantics: the fresh session's keys equal the
	// pre-violation ones, so if any revoked copy had survived, the
	// lookaside would serve it. It must instead recompute — same bytes,
	// no new loop hits.
	hits0 := srv2.fleetLoopHits.Load()
	info2 := createSession(t, ts2.URL, req)
	if got := analyzeJSON(t, ts2.URL, info2.ID); !bytes.Equal(got, gold) {
		t.Fatalf("post-restart session did not reproduce clean-slate bytes")
	}
	if n := srv2.fleetLoopHits.Load(); n != hits0 {
		t.Fatalf("post-restart session was served a revoked entry (%d -> %d loop hits)", hits0, n)
	}
}

// TestRevokedJournalBlocksResurrection covers the crash window: the
// snapshot on disk predates a quarantine (it still holds the predicated
// entries) and the instance dies without a drain snapshot. The journal
// alone — written synchronously at observe time — must keep the next
// boot from resurrecting the revoked entries.
func TestRevokedJournalBlocksResurrection(t *testing.T) {
	dir := t.TempDir()
	req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}

	srv1, ts1 := bootPersistServer(dir)
	info1 := createSession(t, ts1.URL, req)
	gold := analyzeJSON(t, ts1.URL, info1.ID)
	var results []WireLoopResult
	if err := json.Unmarshal(gold, &results); err != nil {
		t.Fatal(err)
	}
	keys := harvestAsserts(AnalyzeResponse{Results: results})
	if len(keys) == 0 {
		t.Fatal("vacuous test: no predicated answers")
	}
	drainPersist(t, srv1, ts1) // snapshot now holds the predicated entries

	// Second life: observe the violations, then crash without a drain.
	_, ts2 := bootPersistServer(dir)
	var vs []WireViolation
	for _, k := range keys {
		vs = append(vs, WireViolation{Assertion: k, Detail: "observed then crashed"})
	}
	info2 := createSession(t, ts2.URL, req)
	if status, raw := do(t, ts2.URL, "POST", "/sessions/"+info2.ID+"/observe", ObserveRequest{Violations: vs}); status != http.StatusOK {
		t.Fatalf("observe: status %d, body %s", status, raw)
	}
	ts2.Close() // no Shutdown: the stale snapshot stays on disk

	// Third life: the stale snapshot still lists the entries, but the
	// journal must block every one of them.
	srv3, ts3 := bootPersistServer(dir)
	defer drainPersist(t, srv3, ts3)
	local := srv3.fleet.Local()
	revoked := make(map[string]bool, len(keys))
	for _, k := range keys {
		revoked[k] = true
	}
	for _, e := range local.SnapshotEntries() {
		for _, a := range e.Asserts {
			if revoked[a] {
				t.Fatalf("stale snapshot resurrected %q past the journal", e.Key)
			}
		}
	}
	if st := srv3.PersistStats(); st.Rejected == 0 {
		t.Fatalf("expected journal-blocked entries to count as rejected: %+v", st)
	}
	hits0 := srv3.fleetLoopHits.Load()
	info3 := createSession(t, ts3.URL, req)
	if got := analyzeJSON(t, ts3.URL, info3.ID); !bytes.Equal(got, gold) {
		t.Fatalf("post-crash session did not reproduce clean-slate bytes")
	}
	if n := srv3.fleetLoopHits.Load(); n != hits0 {
		t.Fatalf("post-crash session served a revoked entry (%d -> %d loop hits)", hits0, n)
	}
}

// TestServerShutdownIdempotent drives Shutdown (and through it
// closeFleet and the final snapshot) from many goroutines at once: no
// panic, and exactly one drain snapshot is written.
func TestServerShutdownIdempotent(t *testing.T) {
	dir := t.TempDir()
	srv, ts := bootPersistServer(dir)
	info := createSession(t, ts.URL, CreateSessionRequest{Name: "small", Source: smallSource})
	analyzeJSON(t, ts.URL, info.ID)
	ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		}()
	}
	wg.Wait()
	if st := srv.PersistStats(); st.Saves != 1 {
		t.Fatalf("drain wrote %d snapshots, want exactly 1", st.Saves)
	}
}

// TestServerPeriodicSnapshot exercises the timer path: with
// SnapshotEvery set, a snapshot appears without any drain, and a crash
// (no Shutdown) still boots warm from it.
func TestServerPeriodicSnapshot(t *testing.T) {
	dir := t.TempDir()
	srv1 := New(Config{Fleet: &FleetConfig{Self: "p0", CacheDir: dir, SnapshotEvery: 5 * time.Millisecond}})
	ts1 := httptest.NewServer(srv1.Handler())
	info := createSession(t, ts1.URL, CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"})
	gold := analyzeJSON(t, ts1.URL, info.ID)

	// Wait for a periodic snapshot that actually contains the published
	// entries (an early tick can legitimately write an empty one).
	deadline := time.Now().Add(5 * time.Second)
	for srv1.PersistStats().Entries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no non-empty periodic snapshot within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts1.Close() // crash: no drain snapshot

	srv2, ts2 := bootPersistServer(dir)
	defer drainPersist(t, srv2, ts2)
	if srv2.PersistStats().Loaded == 0 {
		t.Fatal("periodic snapshot did not load on the next boot")
	}
	info2 := createSession(t, ts2.URL, CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"})
	if got := analyzeJSON(t, ts2.URL, info2.ID); !bytes.Equal(got, gold) {
		t.Fatalf("warm boot from periodic snapshot diverged")
	}
	// The abandoned first server still holds its goroutine; shut it down
	// so the test leaves nothing running.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv1.Shutdown(ctx)
}

// TestRouterPersistJournal proves a restarted router keeps its rejoin
// power: the session journal and session map survive Close, and the new
// router can still replay the full mutation history into an empty
// backend and serve the same bytes.
func TestRouterPersistJournal(t *testing.T) {
	dir := t.TempDir()
	req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}

	bsrv1, bts1 := newTestServer(t, Config{})
	rt1 := NewRouter(RouterConfig{Backends: map[string]string{"b0": bts1.URL}, CacheDir: dir})
	rts1 := httptest.NewServer(rt1.Handler())
	info := createSession(t, rts1.URL, req)
	gold := analyzeJSON(t, rts1.URL, info.ID)
	rts1.Close()
	rt1.Close()
	rt1.Close() // double Close: must be a no-op
	_ = bsrv1

	// The old backend dies with the router; the restarted router fronts a
	// brand-new empty backend and must rebuild it from the loaded journal.
	bts1.Close()
	_, bts2 := newTestServer(t, Config{})
	rt2 := NewRouter(RouterConfig{Backends: map[string]string{"b0": bts2.URL}, CacheDir: dir})
	defer rt2.Close()
	rts2 := httptest.NewServer(rt2.Handler())
	defer rts2.Close()

	rt2.markDown("b0")
	rt2.Probe() // rejoin: replays the persisted journal into the empty backend

	status, raw := do(t, rts2.URL, "GET", "/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: %d %s", status, raw)
	}
	m := decode[RouterMetrics](t, raw)
	if m.Router.Sessions != 1 || m.Router.Rejoins != 1 || len(m.Router.Down) != 0 {
		t.Fatalf("restarted router did not rejoin from the persisted journal: %+v", m.Router)
	}
	if got := analyzeJSON(t, rts2.URL, info.ID); !bytes.Equal(got, gold) {
		t.Fatalf("replayed backend serves different bytes than the original fleet")
	}
}

// TestRouterCloseConcurrent hammers Close from several goroutines while
// requests are in flight — the regression test for idempotent teardown.
func TestRouterCloseConcurrent(t *testing.T) {
	_, bts := newTestServer(t, Config{})
	rt := NewRouter(RouterConfig{Backends: map[string]string{"b0": bts.URL}, Probe: time.Millisecond, CacheDir: t.TempDir()})
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(t, rts.URL, "GET", "/healthz", nil)
		}()
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.Close()
		}()
	}
	wg.Wait()
}

// TestSnapshotOldLoopEncodingNeverServed: a snapshot written before loop
// results were stored in served form holds them under the "|loop|"
// namespace as json.Marshal output, which HTML-escapes the "->" of
// control-speculation assertions. Restoring such a snapshot for a real
// session must never serve those bytes: the analyze recomputes,
// fleet_loop_hits stays put, and the reply is byte-identical to a cold
// single instance.
func TestSnapshotOldLoopEncodingNeverServed(t *testing.T) {
	req := CreateSessionRequest{Bench: "129.compress"}
	areq := AnalyzeRequest{Scheme: "scaf"}
	_, cold := newTestServer(t, Config{})
	info := createSession(t, cold.URL, req)
	path := "/sessions/" + info.ID + "/analyze"
	_, gold := do(t, cold.URL, "POST", path, areq)

	// The old entries: each loop result as json.Marshal encoded it, keyed
	// by the prefix a fleet session of this create request has.
	gen, gts := newTestServer(t, Config{Fleet: &FleetConfig{Self: "p0"}})
	t.Cleanup(func() { gen.fleet.Close() })
	createSession(t, gts.URL, req)
	gen.mu.Lock()
	prefix := gen.sessions[info.ID].fleetPrefix(scaf.SchemeSCAF)
	gen.mu.Unlock()
	var old []fleet.Entry
	escaped := false
	for _, wr := range decode[AnalyzeResponse](t, gold).Results {
		v, err := json.Marshal(wr)
		if err != nil {
			t.Fatal(err)
		}
		escaped = escaped || bytes.Contains(v, []byte(`-\u003e`))
		key := prefix + "|loop|" + wr.Loop
		if IsLoopKey(key) {
			t.Fatalf("old-encoding key %q is in the served loop namespace", key)
		}
		old = append(old, fleet.Entry{Key: key, Value: v, Asserts: loopAssertKeys(wr)})
	}
	if len(old) == 0 || !escaped {
		t.Fatalf("vacuous: %d loop results, any HTML-escaped: %v", len(old), escaped)
	}

	dir := t.TempDir()
	st, err := persist.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(persist.Snapshot{Entries: old}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	srv, ts := bootPersistServer(dir)
	defer drainPersist(t, srv, ts)
	if n := srv.fleet.Local().Len(); n != len(old) {
		t.Fatalf("restored %d entries, want the %d old-encoding ones", n, len(old))
	}
	createSession(t, ts.URL, req)
	status, got := do(t, ts.URL, "POST", path, areq)
	if status != http.StatusOK || !bytes.Equal(got, gold) {
		t.Fatalf("analyze over old-encoding snapshot: %d\ngot  %.300s\nwant %.300s", status, got, gold)
	}
	if n := srv.fleetLoopHits.Load(); n != 0 {
		t.Fatalf("old-encoding entries were served: fleet_loop_hits = %d", n)
	}
}
