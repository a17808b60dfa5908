package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scaf"
	"scaf/internal/core"
	"scaf/internal/fleet"
	"scaf/internal/ir"
	"scaf/internal/mcgen"
	"scaf/internal/recovery"
	"scaf/internal/spec"
)

// startFleet boots a loopback fleet of plain backends for one test and
// closes it when the test ends.
func startFleet(t *testing.T, members int, spare bool, rc RouterConfig) *LoopbackFleet {
	t.Helper()
	fl, err := StartLoopbackFleet(members, spare, "", Config{}, rc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := fl.Close(); err != nil {
			t.Errorf("closing the fleet: %v", err)
		}
	})
	return fl
}

// TestRouterByteIdentity: the router fronting a 2-backend fleet serves
// responses byte-identical to a single cold instance — session create,
// batch analyze (spliced from a per-loop fan-out), and single queries,
// serially and under parallel load — in both routing modes.
func TestRouterByteIdentity(t *testing.T) {
	for _, route := range []string{"hash", "rr"} {
		t.Run(route, func(t *testing.T) {
			fl := startFleet(t, 2, false, RouterConfig{Route: route})
			_, ref := newTestServer(t, Config{})

			req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
			refStatus, refCreate := do(t, ref.URL, "POST", "/sessions", req)
			gotStatus, gotCreate := do(t, fl.URL, "POST", "/sessions", req)
			if gotStatus != refStatus || !bytes.Equal(gotCreate, refCreate) {
				t.Fatalf("create diverged: %d %s vs %d %s", gotStatus, gotCreate, refStatus, refCreate)
			}
			info := decode[SessionInfo](t, gotCreate)

			// Serial: full response bodies must match byte for byte.
			refA, refAraw := do(t, ref.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: "scaf"})
			gotA, gotAraw := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: "scaf"})
			if gotA != refA || !bytes.Equal(gotAraw, refAraw) {
				t.Fatalf("%s: analyze diverged from single instance:\ngot  %.300s\nwant %.300s",
					route, gotAraw, refAraw)
			}

			var refResp struct {
				Results []json.RawMessage `json:"results"`
			}
			if err := json.Unmarshal(refAraw, &refResp); err != nil {
				t.Fatal(err)
			}
			var results []WireLoopResult
			raw, _ := json.Marshal(refResp.Results)
			if err := json.Unmarshal(raw, &results); err != nil {
				t.Fatal(err)
			}
			q0 := results[0].Queries[0]
			qreq := QueryRequest{Scheme: "scaf", Loop: results[0].Loop, I1: q0.I1, I2: q0.I2, Rel: q0.Rel}
			refQ, refQraw := do(t, ref.URL, "POST", "/sessions/"+info.ID+"/query", qreq)
			gotQ, gotQraw := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/query", qreq)
			if gotQ != refQ || !bytes.Equal(gotQraw, refQraw) {
				t.Fatalf("%s: query diverged:\ngot  %s\nwant %s", route, gotQraw, refQraw)
			}

			// Parallel: coalescing counters may appear in the envelopes, but
			// every served result must still be the reference bytes.
			var wg sync.WaitGroup
			errs := make(chan string, 64)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 4; i++ {
						if (g+i)%2 == 0 {
							st, raw := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: "scaf"})
							if st != http.StatusOK {
								errs <- fmt.Sprintf("parallel analyze: status %d: %.200s", st, raw)
								return
							}
							var got struct {
								Results []json.RawMessage `json:"results"`
							}
							if err := json.Unmarshal(raw, &got); err != nil || len(got.Results) != len(refResp.Results) {
								errs <- fmt.Sprintf("parallel analyze: bad envelope %.200s", raw)
								return
							}
							for j := range got.Results {
								if !bytes.Equal(got.Results[j], refResp.Results[j]) {
									errs <- fmt.Sprintf("parallel analyze: loop %d diverged", j)
									return
								}
							}
						} else {
							st, raw := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/query", qreq)
							if st != http.StatusOK {
								errs <- fmt.Sprintf("parallel query: status %d: %.200s", st, raw)
								return
							}
							var got struct {
								Query json.RawMessage `json:"query"`
							}
							var want struct {
								Query json.RawMessage `json:"query"`
							}
							json.Unmarshal(raw, &got)
							json.Unmarshal(refQraw, &want)
							if !bytes.Equal(got.Query, want.Query) {
								errs <- fmt.Sprintf("parallel query diverged: %.200s", got.Query)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}

			// The router's aggregate metrics cover every backend.
			st, raw := do(t, fl.URL, "GET", "/metrics", nil)
			if st != http.StatusOK {
				t.Fatalf("router metrics: %d %.200s", st, raw)
			}
			var rm RouterMetrics
			if err := json.Unmarshal(raw, &rm); err != nil {
				t.Fatal(err)
			}
			if len(rm.Backends) != len(fl.IDs()) {
				t.Fatalf("metrics cover %d backends, want %d", len(rm.Backends), len(fl.IDs()))
			}
			if rm.Router.Sessions != 1 || rm.Router.Route != route {
				t.Fatalf("router counters: %+v", rm.Router)
			}
		})
	}
}

// TestRouterFleetInconsistency: backends whose replicated state has
// drifted (here: a session created behind the router's back makes b0
// hold the ID the router mints next, so b0 answers 409 where b1 creates)
// must surface as 502 fleet_inconsistent on the next broadcast, never as
// silently divergent state.
func TestRouterFleetInconsistency(t *testing.T) {
	fl := startFleet(t, 2, false, RouterConfig{})

	req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
	if st, raw := do(t, fl.BackendURL("b0"), "POST", "/sessions", req); st != http.StatusCreated {
		t.Fatalf("direct create: %d %s", st, raw)
	}

	st, raw := do(t, fl.URL, "POST", "/sessions", req)
	if st != http.StatusBadGateway {
		t.Fatalf("create over skewed fleet: status %d, want 502 (body %.300s)", st, raw)
	}
	if e := decode[ErrorResponse](t, raw); e.Error.Code != "fleet_inconsistent" {
		t.Fatalf("code %q, want fleet_inconsistent", e.Error.Code)
	}
}

// leakSource leaks two malloc objects per iteration of its one loop.
const leakSource = `
int* sa;
int* sb;
int out;
int main() {
  for (int i = 0; i < 150; i = i + 1) {
    sa = malloc(int, 4);
    sb = malloc(int, 4);
    int* a = sa;
    int* b = sb;
    a[0] = i;
    b[0] = i;
    out = out + a[0] + b[0];
  }
  return out;
}
`

// TestRouterViolatingCreateMatchesSingleInstance: a create whose client
// assertions fail validation many times over (two short-lived
// assertions, two objects surviving every iteration) is refused through
// the router with the single instance's exact 422 body. The backends
// validate independently, so this holds only if every validation run
// reports its violations in the same order; otherwise the broadcast
// disagrees and the router answers 502 fleet_inconsistent.
func TestRouterViolatingCreateMatchesSingleInstance(t *testing.T) {
	sys, err := scaf.Load("leak", leakSource, scaf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	main := sys.Mod.FuncNamed("main")
	var sites []int
	main.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpMalloc {
			sites = append(sites, in.ID)
		}
	})
	loops := sys.Prog.Forests[main].All
	if len(sites) != 2 || len(loops) != 1 {
		t.Fatalf("want 2 malloc sites in 1 loop, got %d in %d", len(sites), len(loops))
	}
	header := loops[0].Header.String()
	req := CreateSessionRequest{Name: "leak", Source: leakSource, Plan: "off"}
	for i := range sites {
		req.Assertions = append(req.Assertions, WireAssertion{
			Module: spec.NameShortLived, Kind: fmt.Sprintf("sl-%d", i), Cost: 1,
			Points: []WirePoint{{Fn: "main", Instr: &sites[i]}, {Fn: "main", Block: header}},
		})
	}

	fl := startFleet(t, 2, false, RouterConfig{})
	_, ref := newTestServer(t, Config{})
	refStatus, refBody := do(t, ref.URL, "POST", "/sessions", req)
	if refStatus != http.StatusUnprocessableEntity {
		t.Fatalf("single instance: status %d, want 422 (body %.300s)", refStatus, refBody)
	}
	if e := decode[ErrorResponse](t, refBody); len(e.Error.Violations) < 2 {
		t.Fatalf("vacuous: %d violations", len(e.Error.Violations))
	}
	for i := 0; i < 5; i++ {
		st, body := do(t, fl.URL, "POST", "/sessions", req)
		if st != refStatus || !bytes.Equal(body, refBody) {
			t.Fatalf("create %d through the router: %d %.300s\nwant %d %.300s", i, st, body, refStatus, refBody)
		}
	}

	// Each refused create consumed an ID and a malformed body none, on the
	// router as on a single instance: after the same sequence, a good
	// create gets the same ID from both.
	for i := 1; i < 5; i++ {
		do(t, ref.URL, "POST", "/sessions", req)
	}
	good := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
	var infos []SessionInfo
	for _, base := range []string{ref.URL, fl.URL} {
		resp, err := http.Post(base+"/sessions", "application/json", strings.NewReader("{"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed create: status %d, want 400", resp.StatusCode)
		}
		infos = append(infos, createSession(t, base, good))
	}
	if infos[0].ID != "s6" || infos[1].ID != infos[0].ID {
		t.Fatalf("good create got %s through the router and %s from a single instance, want s6 from both", infos[1].ID, infos[0].ID)
	}
}

// TestRouterInconsistentCreateBurnsID: a create the backends disagree on
// (one of them holds the minted ID already, from a create behind the
// router's back) is a 502, and it burns the ID. The split is repaired
// before the 502 goes out: both backends list the same sessions, and
// neither holds the burned ID. The next create through the router lands
// on an ID neither backend holds.
func TestRouterInconsistentCreateBurnsID(t *testing.T) {
	fl := startFleet(t, 2, false, RouterConfig{})
	direct := CreateSessionRequest{Name: "direct", Source: smallSource, Plan: "off"}
	if st, raw := do(t, fl.BackendURL("b0"), "POST", "/sessions", direct); st != http.StatusCreated {
		t.Fatalf("direct create: %d %s", st, raw)
	}
	req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
	if st, raw := do(t, fl.URL, "POST", "/sessions", req); st != http.StatusBadGateway {
		t.Fatalf("create over skewed fleet: status %d, want 502 (body %.300s)", st, raw)
	}
	held := requireSameSessions(t, fl.BackendURL("b0"), fl.BackendURL("b1"))
	for _, info := range held {
		if info.ID == "s1" {
			t.Fatalf("after the split create the backends still hold the burned ID: %+v", held)
		}
	}
	if info := createSession(t, fl.URL, req); info.ID != "s2" {
		t.Fatalf("create after the burned ID got %s, want s2", info.ID)
	}
}

// TestRouterInconsistentDeleteKeepsSession: a delete the backends
// disagree on (b0 lost the session behind the router's back) is a 502,
// and it leaves the session live and held by every backend, so a retry
// deletes it everywhere.
func TestRouterInconsistentDeleteKeepsSession(t *testing.T) {
	fl := startFleet(t, 2, false, RouterConfig{})
	info := createSession(t, fl.URL, CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"})
	if st, raw := do(t, fl.BackendURL("b0"), "DELETE", "/sessions/"+info.ID, nil); st != http.StatusNoContent {
		t.Fatalf("direct delete: %d %s", st, raw)
	}
	st, raw := do(t, fl.URL, "DELETE", "/sessions/"+info.ID, nil)
	if st != http.StatusBadGateway {
		t.Fatalf("delete over skewed fleet: status %d, want 502 (body %.300s)", st, raw)
	}
	if e := decode[ErrorResponse](t, raw); e.Error.Code != "fleet_inconsistent" {
		t.Fatalf("code %q, want fleet_inconsistent", e.Error.Code)
	}
	if held := requireSameSessions(t, fl.BackendURL("b0"), fl.BackendURL("b1")); len(held) != 1 || !reflect.DeepEqual(held[0], info) {
		t.Fatalf("after the split delete the backends hold %+v, want only %+v", held, info)
	}
	if st, raw := do(t, fl.URL, "DELETE", "/sessions/"+info.ID, nil); st != http.StatusNoContent {
		t.Fatalf("retried delete: %d %s", st, raw)
	}
	if held := requireSameSessions(t, fl.BackendURL("b0"), fl.BackendURL("b1")); len(held) != 0 {
		t.Fatalf("after the retried delete the backends hold %+v", held)
	}
}

// TestRouterBackendLossAndRejoin: killing a backend mid-service refuses
// exactly its shard (503 + Retry-After) while the other keeps answering;
// after a restart the router makes the live sessions again on it (same
// IDs, including sessions created during the outage) and re-syncs
// quarantine state, and the rejoined backend serves byte-identical
// answers.
func TestRouterBackendLossAndRejoin(t *testing.T) {
	fl := startFleet(t, 2, false, RouterConfig{})
	rt := fl.Router

	req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
	info := createSession(t, fl.URL, req)
	_, analyzeRaw := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: "scaf"})
	var ar struct {
		Results []WireLoopResult `json:"results"`
	}
	if err := json.Unmarshal(analyzeRaw, &ar); err != nil {
		t.Fatal(err)
	}

	// Find one query homed on each backend. A query goes where its
	// loop's analyze key does, so look across the three schemes.
	queryFor := func(owner string) *QueryRequest {
		for _, scheme := range []string{"caf", "confluence", "scaf"} {
			for _, lr := range ar.Results {
				if len(lr.Queries) > 0 && rt.ring.Owner(analyzeKey(info.ID, scheme, lr.Loop)) == owner {
					q := lr.Queries[0]
					return &QueryRequest{Scheme: scheme, Loop: lr.Loop, I1: q.I1, I2: q.I2, Rel: q.Rel}
				}
			}
		}
		return nil
	}
	qA, qB := queryFor("b0"), queryFor("b1")
	if qA == nil || qB == nil {
		t.Fatalf("analyze keys did not spread across both shards")
	}
	_, wantQA := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/query", *qA)
	_, wantQB := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/query", *qB)

	// Kill b1. Its shard is refused; b0's shard keeps answering.
	fl.Stop("b1")
	st, raw := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/query", *qB)
	if st != http.StatusServiceUnavailable {
		// The first request may be the one that discovers the death.
		st, raw = do(t, fl.URL, "POST", "/sessions/"+info.ID+"/query", *qB)
	}
	if st != http.StatusServiceUnavailable {
		t.Fatalf("query to dead shard: status %d, want 503 (%.300s)", st, raw)
	}
	resp, err := http.Post(fl.URL+"/sessions/"+info.ID+"/query", "application/json",
		bytes.NewReader(mustJSON(t, *qB)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("dead shard refusal lacks Retry-After: %d %v", resp.StatusCode, resp.Header)
	}
	if st, got := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/query", *qA); st != http.StatusOK || !bytes.Equal(got, wantQA) {
		t.Fatalf("live shard degraded by the dead one: %d %.200s", st, got)
	}

	// Mutations during the outage: a new session is created on the
	// surviving backend only.
	info2 := createSession(t, fl.URL, CreateSessionRequest{Name: "small2", Source: smallSource, Plan: "off"})

	// A violation reported during the outage must reach b1 at rejoin. The
	// session owner may be the dead backend, so report directly to b0.
	keys := harvestAsserts(AnalyzeResponse{Results: ar.Results})
	if len(keys) == 0 {
		t.Fatal("no predicating assertions to violate")
	}
	directA := fl.BackendURL("b0")
	if st, raw := do(t, directA, "POST", "/sessions/"+info.ID+"/observe",
		ObserveRequest{Violations: []WireViolation{{Assertion: keys[0], Detail: "outage observe"}}}); st != http.StatusOK {
		t.Fatalf("observe on survivor: %d %s", st, raw)
	}
	_, wantQAafter := do(t, directA, "POST", "/sessions/"+info.ID+"/query", *qA)

	// Restart b1 and rejoin: reconcile + quarantine sync.
	if err := fl.Restart("b1"); err != nil {
		t.Fatal(err)
	}
	rt.Probe()
	if rt.isDown("b1") {
		t.Fatal("restarted backend did not rejoin")
	}
	if rt.rejoins.Load() != 1 {
		t.Fatalf("rejoins = %d, want 1", rt.rejoins.Load())
	}

	_, raw = do(t, fl.BackendURL("b1"), "GET", "/sessions", nil)
	sessions := decode[[]SessionInfo](t, raw)
	if len(sessions) != 2 || sessions[0].ID != info.ID || sessions[1].ID != info2.ID {
		t.Fatalf("reconciled registry = %+v, want [%s %s]", sessions, info.ID, info2.ID)
	}

	// The rejoined backend serves its shard again, with the quarantine
	// applied: answers match the survivor's post-observe bytes.
	_, gotQB := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/query", *qB)
	_, wantQBafter := do(t, directA, "POST", "/sessions/"+info.ID+"/query", *qB)
	if !bytes.Equal(gotQB, wantQBafter) {
		t.Fatalf("rejoined shard diverged from survivor:\ngot  %.300s\nwant %.300s", gotQB, wantQBafter)
	}
	if st, got := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/query", *qA); st != http.StatusOK || !bytes.Equal(got, wantQAafter) {
		t.Fatalf("survivor shard changed across rejoin: %d", st)
	}
	_ = wantQB // pre-outage reference; post-recovery bytes may legitimately differ

	// Metrics surface the outage and rejoin.
	_, raw = do(t, fl.URL, "GET", "/metrics", nil)
	var rm RouterMetrics
	if err := json.Unmarshal(raw, &rm); err != nil {
		t.Fatal(err)
	}
	if rm.Router.Refused == 0 || rm.Router.Rejoins != 1 || len(rm.Router.Down) != 0 {
		t.Fatalf("router counters: %+v", rm.Router)
	}
	if len(rm.Backends) != 2 {
		t.Fatalf("metrics cover %d backends, want 2", len(rm.Backends))
	}
}

// TestRouterRecoveryIsSessionScoped: a recovery event quarantines the
// session it was reported on, and no other, on every backend. Six
// sessions of one program are created through a two-backend router and
// on a single instance, and s1's predicating assertions are observed on
// both. Through the router, every session must answer its analyze with
// the single instance's bytes, s1 must be quarantined on both backends,
// and no backend may list a quarantine for any other session. Applying
// the event to every session of the program on the backend that did not
// take the observe made s5 answer differently.
func TestRouterRecoveryIsSessionScoped(t *testing.T) {
	fl := startFleet(t, 2, false, RouterConfig{})
	_, ref := newTestServer(t, Config{})
	req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
	var ids []string
	for i := 0; i < 6; i++ {
		want := createSession(t, ref.URL, req)
		if got := createSession(t, fl.URL, req); got.ID != want.ID {
			t.Fatalf("create %d: %s through the router, %s on the single instance", i, got.ID, want.ID)
		}
		ids = append(ids, want.ID)
	}
	keys := harvestAsserts(decode[AnalyzeResponse](t, mustAnalyze(t, ref.URL, ids[0])))
	if len(keys) == 0 {
		t.Fatal("vacuous: no served answer was predicated on an assertion")
	}
	var obs ObserveRequest
	for _, k := range keys {
		obs.Violations = append(obs.Violations, WireViolation{Assertion: k, Detail: "observed on s1"})
	}
	for _, base := range []string{ref.URL, fl.URL} {
		if st, raw := do(t, base, "POST", "/sessions/"+ids[0]+"/observe", obs); st != http.StatusOK {
			t.Fatalf("observe s1 at %s: %d %s", base, st, raw)
		}
	}
	for _, id := range ids {
		if got, want := mustAnalyze(t, fl.URL, id), mustAnalyze(t, ref.URL, id); !bytes.Equal(got, want) {
			t.Errorf("%s through the router diverged from the single instance:\ngot  %.300s\nwant %.300s", id, got, want)
		}
	}
	for _, b := range fl.IDs() {
		m, err := fl.Metrics(b)
		if err != nil {
			t.Fatal(err)
		}
		if q := m.Sessions[ids[0]].Quarantine; q == nil || !reflect.DeepEqual(q.Asserts, keys) {
			t.Errorf("%s: s1's quarantine is %+v, want asserts %v", b, q, keys)
		}
		for _, id := range ids[1:] {
			if q := m.Sessions[id].Quarantine; q != nil {
				t.Errorf("%s: %s, which no event was reported on, lists quarantine %+v", b, id, q)
			}
		}
	}
}

// TestRouterReplicatesModulePanic: a module that panics while one
// backend answers a query is quarantined in that session's copy on every
// backend before the query's reply reaches the client, and in no other
// session. The other backend never consulted the module: it holds the
// quarantine because the router replicated it.
func TestRouterReplicatesModulePanic(t *testing.T) {
	armed := &atomic.Bool{}
	fl, err := StartLoopbackFleet(2, false, "", Config{
		ExtraModules: func() []core.Module { return []core.Module{&panicModule{armed: armed}} },
	}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })
	req := CreateSessionRequest{Name: "indirect", Source: indirectSource, Plan: "off"}
	info := createSession(t, fl.URL, req)
	other := createSession(t, fl.URL, req)
	ar := decode[AnalyzeResponse](t, mustAnalyze(t, fl.URL, info.ID))

	// Ask the session's queries under a scheme whose caches are still
	// cold, so they consult the module, until one panics it.
	armed.Store(true)
	for _, lr := range ar.Results {
		for _, q := range lr.Queries {
			qreq := QueryRequest{Scheme: "confluence", Loop: lr.Loop, I1: q.I1, I2: q.I2, Rel: q.Rel}
			if st, raw := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/query", qreq); st != http.StatusOK {
				t.Fatalf("query: %d %.300s", st, raw)
			}
			owner := fl.Router.AnalyzeOwner(info.ID, qreq.Scheme, lr.Loop)
			if m, err := fl.Metrics(owner); err != nil {
				t.Fatal(err)
			} else if m.Sessions[info.ID].Stats.ModulePanics == 0 {
				continue
			}
			for _, b := range fl.IDs() {
				m, err := fl.Metrics(b)
				if err != nil {
					t.Fatal(err)
				}
				sm := m.Sessions[info.ID]
				if sm.Quarantine == nil || !reflect.DeepEqual(sm.Quarantine.Modules, []string{"test-panic"}) {
					t.Errorf("%s: %s's quarantine is %+v, want module test-panic", b, info.ID, sm.Quarantine)
				}
				if b != owner && sm.Stats.ModulePanics != 0 {
					t.Errorf("vacuous: %s panicked the module itself", b)
				}
				if q := m.Sessions[other.ID].Quarantine; q != nil {
					t.Errorf("%s: %s, which nothing panicked in, lists quarantine %+v", b, other.ID, q)
				}
			}
			return
		}
	}
	t.Fatal("vacuous: no query panicked the module")
}

// TestRouterMarksDownWhatMissesAReplication: a backend that misses the
// replication of a recovery event is marked down before the reply to the
// observe goes out, refuses its loops with 503 + Retry-After, and holds
// the fleet's quarantine again once a probe catches it up. The session
// is one the router homes on b0, with a loop it places on b1, so b0
// takes the observe and b1, which drops its first observe on the way
// in, misses the replication.
func TestRouterMarksDownWhatMissesAReplication(t *testing.T) {
	sys, err := scaf.Load("small", smallSource, scaf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ring := fleet.NewRing([]string{"b0", "b1"}, 0)
	var sid string
	var onB1 *AnalyzeRequest
	for n := 1; onB1 == nil; n++ {
		sid = "s" + strconv.Itoa(n)
		if ring.Owner("s|"+sid) != "b0" {
			continue
		}
		for _, scheme := range []string{"caf", "confluence", "scaf"} {
			for _, l := range sys.HotLoops() {
				if onB1 == nil && ring.Owner(analyzeKey(sid, scheme, l.Name())) == "b1" {
					onB1 = &AnalyzeRequest{Scheme: scheme, Loops: []string{l.Name()}}
				}
			}
		}
	}
	rt, url, b0, b1 := startDropFleet(t, http.MethodPost, "/sessions/"+sid+"/observe", 1, nil)
	for i := 1; ; i++ {
		info := createSession(t, url, CreateSessionRequest{Name: fmt.Sprintf("small%d", i), Source: smallSource, Plan: "off"})
		if info.ID == sid {
			break
		}
	}
	keys := harvestAsserts(decode[AnalyzeResponse](t, mustAnalyze(t, url, sid)))
	if len(keys) == 0 {
		t.Fatal("vacuous: no served answer was predicated on an assertion")
	}
	obs := ObserveRequest{Violations: []WireViolation{{Assertion: keys[0], Detail: "observed"}}}
	if st, raw := do(t, url, "POST", "/sessions/"+sid+"/observe", obs); st != http.StatusOK {
		t.Fatalf("observe: %d %s", st, raw)
	}
	requireDown(t, rt)

	resp, err := http.Post(url+"/sessions/"+sid+"/analyze", "application/json", bytes.NewReader(mustJSON(t, *onB1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("a loop of the marked-down backend answered %d with Retry-After %q, want 503 with one",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	rt.Probe()
	requireRejoined(t, rt, b0, b1)
	quarantine := func(base string) *recovery.Snapshot {
		_, raw := do(t, base, "GET", "/metrics", nil)
		q := decode[MetricsResponse](t, raw).Sessions[sid].Quarantine
		if q == nil {
			t.Fatalf("%s lists no quarantine for %s", base, sid)
		}
		return q
	}
	q0, q1 := quarantine(b0), quarantine(b1)
	if !reflect.DeepEqual(q1.Asserts, q0.Asserts) || !reflect.DeepEqual(q1.Modules, q0.Modules) {
		t.Fatalf("after a probe b1 quarantines %v %v, b0 %v %v", q1.Asserts, q1.Modules, q0.Asserts, q0.Modules)
	}
	_, want := do(t, b0, "POST", "/sessions/"+sid+"/analyze", *onB1)
	if st, got := do(t, url, "POST", "/sessions/"+sid+"/analyze", *onB1); st != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("caught-up b1 answered %d\n%.300s\nwhere b0 answers\n%.300s", st, got, want)
	}
}

// requireRefused requires a read's reply to be a retryable refusal: 503
// backend_down with Retry-After.
func requireRefused(t *testing.T, what string, st int, hdr http.Header, raw []byte) {
	t.Helper()
	if st != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" ||
		decode[ErrorResponse](t, raw).Error.Code != "backend_down" {
		t.Fatalf("%s: %d with Retry-After %q, %.300s; want a 503 backend_down with Retry-After", what, st, hdr.Get("Retry-After"), raw)
	}
}

// TestRouterCatchesUpASilentRestart: a backend that restarts between two
// requests comes back empty, and the router learns it only from that
// backend's replies. Six sessions are created through a two-backend
// router and on a single instance; an analyze of a loop no session has
// answers the single instance's 404 and marks no backend down. Then b1
// is stopped and restarted with no request in between. No read through
// the router may answer 404:
// each session's analyze and GET either answers as the single instance
// does or is refused with 503 and Retry-After. One probe then catches b1
// up, and every analyze equals the single instance's bytes. Without the
// check, most analyzes answered 404 and b1 was never marked down.
func TestRouterCatchesUpASilentRestart(t *testing.T) {
	fl := startFleet(t, 2, false, RouterConfig{})
	_, ref := newTestServer(t, Config{})
	req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
	var ids []string
	for i := 0; i < 6; i++ {
		want := createSession(t, ref.URL, req)
		if got := createSession(t, fl.URL, req); got.ID != want.ID {
			t.Fatalf("create %d: %s through the router, %s on the single instance", i, got.ID, want.ID)
		}
		ids = append(ids, want.ID)
	}
	// A 404 about a loop of a live session is relayed as it is: the
	// backend still answers for the session.
	for _, id := range ids {
		nope := AnalyzeRequest{Scheme: "scaf", Loops: []string{"main/nope.0"}}
		_, want := do(t, ref.URL, http.MethodPost, "/sessions/"+id+"/analyze", nope)
		if st, got := do(t, fl.URL, http.MethodPost, "/sessions/"+id+"/analyze", nope); st != http.StatusNotFound || !bytes.Equal(got, want) {
			t.Fatalf("analyze of an unknown loop of %s: %d %.300s, want the single instance's 404 %.300s", id, st, got, want)
		}
	}
	if up := fl.Router.upIDs(); len(up) != 2 {
		t.Fatalf("a 404 about a loop marked a backend down: up %v", up)
	}

	fl.Stop("b1")
	if err := fl.Restart("b1"); err != nil {
		t.Fatal(err)
	}

	refused := 0
	for _, id := range ids {
		for _, r := range []struct {
			method, path string
			body         any
		}{
			{http.MethodPost, "/sessions/" + id + "/analyze", AnalyzeRequest{Scheme: "scaf"}},
			{http.MethodGet, "/sessions/" + id, nil},
		} {
			st, hdr, got := doHeader(t, fl.URL, r.method, r.path, r.body)
			if st == http.StatusServiceUnavailable {
				requireRefused(t, r.method+" "+r.path, st, hdr, got)
				refused++
				continue
			}
			if _, want := do(t, ref.URL, r.method, r.path, r.body); st != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("%s %s after b1's restart: %d %.300s\nwhere the single instance answers\n%.300s", r.method, r.path, st, got, want)
			}
		}
	}
	if refused == 0 || !fl.Router.isDown("b1") {
		t.Fatalf("vacuous: %d reads refused, b1 down=%v; want the restarted b1 found out", refused, fl.Router.isDown("b1"))
	}

	fl.Router.Probe()
	if fl.Router.isDown("b1") || fl.Router.rejoins.Load() != 1 {
		t.Fatalf("after a probe b1 is down=%v with rejoins=%d, want up and 1", fl.Router.isDown("b1"), fl.Router.rejoins.Load())
	}
	for _, id := range ids {
		if got, want := mustAnalyze(t, fl.URL, id), mustAnalyze(t, ref.URL, id); !bytes.Equal(got, want) {
			t.Errorf("%s after the catch-up diverged from the single instance:\ngot  %.300s\nwant %.300s", id, got, want)
		}
	}
}

// TestRouterDeleteInFlightIsNotALostSession: a read that meets a session
// a delete has already removed from its backend, while the delete's
// broadcast has not ended, is answered with that backend's 404, and the
// backend stays up. The backend that owns the read holds its reply to
// the delete until the read's confirming GET has reached it, so the
// read finds the session live before the delete ends; marking the
// backend down without the recheck under bmu answered 503.
func TestRouterDeleteInFlightIsNotALostSession(t *testing.T) {
	sys, err := scaf.Load("small", smallSource, scaf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	loop := sys.HotLoops()[0].Name()
	owner := fleet.NewRing([]string{"b0", "b1"}, 0).Owner(analyzeKey("s1", "scaf", loop))
	deleted, confirmed, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	urls := map[string]string{}
	for _, id := range []string{"b0", "b1"} {
		h := New(Config{}).Handler()
		if id == owner {
			next := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				next.ServeHTTP(w, r)
				if r.URL.Path != "/sessions/s1" {
					return
				}
				switch r.Method {
				case http.MethodDelete:
					close(deleted)
					<-release
				case http.MethodGet:
					close(confirmed)
				}
			})
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls[id] = ts.URL
	}
	rt := NewRouter(RouterConfig{Backends: urls})
	t.Cleanup(rt.Close)
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	// Cleanups run last first: the held delete is released before the
	// servers wait for it, on a failure too.
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })
	if info := createSession(t, rts.URL, CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}); info.ID != "s1" {
		t.Fatalf("created %s, want s1", info.ID)
	}

	type reply struct {
		status int
		body   []byte
	}
	post := func(method, path string, body []byte, into chan<- reply) {
		req, err := http.NewRequest(method, rts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			into <- reply{}
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			into <- reply{}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		into <- reply{resp.StatusCode, b}
	}
	del, read := make(chan reply, 1), make(chan reply, 1)
	go post(http.MethodDelete, "/sessions/s1", nil, del)
	<-deleted
	go post(http.MethodPost, "/sessions/s1/analyze", mustJSON(t, AnalyzeRequest{Scheme: "scaf", Loops: []string{loop}}), read)
	select {
	case <-confirmed:
	case r := <-read:
		t.Fatalf("vacuous: the read answered %d %.300s without asking %s for the session", r.status, r.body, owner)
	}
	releaseOnce.Do(func() { close(release) })
	if r := <-del; r.status != http.StatusNoContent {
		t.Fatalf("delete: %d %.300s", r.status, r.body)
	}
	if r := <-read; r.status != http.StatusNotFound || decode[ErrorResponse](t, r.body).Error.Code != "not_found" {
		t.Fatalf("read of a session being deleted: %d %.300s, want %s's 404", r.status, r.body, owner)
	}
	if rt.isDown(owner) {
		t.Fatalf("%s was marked down for a session a delete removed", owner)
	}
}

// TestRouterRefusesAnUnreplicatedEvent: a reply that names a recovery
// event is not relayed when the router cannot read the quarantine of the
// backend that took the event, since the event may live on that backend
// alone. b1 answers its first GET /metrics with a 500. An observe that
// b1 takes, and an analyze with a loop on b1 after an observe sent to b1
// directly, are each refused with 503 and Retry-After, record no
// fingerprint and mark b1 down; a probe then brings b0's copy to b1's
// quarantine, and the retried request answers 200. Replication used to
// leave b1 out of the union and relay the 200 while b0 lacked the event.
func TestRouterRefusesAnUnreplicatedEvent(t *testing.T) {
	sys, err := scaf.Load("small", smallSource, scaf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ring := fleet.NewRing([]string{"b0", "b1"}, 0)
	for _, direct := range []bool{false, true} {
		name := "observe through the router"
		if direct {
			name = "analyze after an observe on b1"
		}
		t.Run(name, func(t *testing.T) {
			// A session the router homes on b1, with a loop it places there.
			var sid string
			var onB1 *AnalyzeRequest
			for n := 1; onB1 == nil; n++ {
				sid = "s" + strconv.Itoa(n)
				if ring.Owner("s|"+sid) != "b1" {
					continue
				}
				for _, l := range sys.HotLoops() {
					if onB1 == nil && ring.Owner(analyzeKey(sid, "scaf", l.Name())) == "b1" {
						onB1 = &AnalyzeRequest{Scheme: "scaf", Loops: []string{l.Name()}}
					}
				}
			}
			var reads atomic.Int32
			rt, url, b0, b1 := startFaultFleet(t, func(w http.ResponseWriter, r *http.Request) bool {
				if r.Method == http.MethodGet && r.URL.Path == "/metrics" && reads.Add(1) == 1 {
					http.Error(w, "metrics unavailable", http.StatusInternalServerError)
					return true
				}
				return false
			})
			for i := 1; ; i++ {
				info := createSession(t, url, CreateSessionRequest{Name: fmt.Sprintf("small%d", i), Source: smallSource, Plan: "off"})
				if info.ID == sid {
					break
				}
			}
			keys := harvestAsserts(decode[AnalyzeResponse](t, mustAnalyze(t, url, sid)))
			if len(keys) == 0 {
				t.Fatal("vacuous: no served answer was predicated on an assertion")
			}
			obs := ObserveRequest{Violations: []WireViolation{{Assertion: keys[0], Detail: "observed"}}}
			send := func() (int, http.Header, []byte) {
				return doHeader(t, url, http.MethodPost, "/sessions/"+sid+"/observe", obs)
			}
			if direct {
				if st, raw := do(t, b1, http.MethodPost, "/sessions/"+sid+"/observe", obs); st != http.StatusOK {
					t.Fatalf("observe on b1: %d %s", st, raw)
				}
				send = func() (int, http.Header, []byte) {
					return doHeader(t, url, http.MethodPost, "/sessions/"+sid+"/analyze", *onB1)
				}
			}
			st, hdr, raw := send()
			requireRefused(t, name, st, hdr, raw)
			requireDown(t, rt)
			rt.mu.Lock()
			fp := rt.sessions[sid].fp
			rt.mu.Unlock()
			if fp != "" {
				t.Fatalf("the router recorded fingerprint %q for an event it could not replicate", fp)
			}

			rt.Probe()
			requireRejoined(t, rt, b0, b1)
			quarantine := func(base string) []string {
				_, raw := do(t, base, "GET", "/metrics", nil)
				if q := decode[MetricsResponse](t, raw).Sessions[sid].Quarantine; q != nil {
					return q.Asserts
				}
				return nil
			}
			if q0, q1 := quarantine(b0), quarantine(b1); !reflect.DeepEqual(q0, []string{keys[0]}) || !reflect.DeepEqual(q1, q0) {
				t.Fatalf("after a probe b0 quarantines %v and b1 %v, want both [%s]", q0, q1, keys[0])
			}
			if st, _, raw := send(); st != http.StatusOK {
				t.Fatalf("retried after the probe: %d %.300s", st, raw)
			}
		})
	}
}

// TestRouterReplicatesConcurrentEvents: observes of one session sent
// through the router at once, beside analyzes of it, are all replicated:
// once every reply is in, each backend's copy of the session lists every
// reported assertion, the other session lists none, and no backend was
// marked down. Under -race it covers the fingerprint each live session
// keeps, which replies read and replications write concurrently.
func TestRouterReplicatesConcurrentEvents(t *testing.T) {
	fl := startFleet(t, 2, false, RouterConfig{})
	req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
	info := createSession(t, fl.URL, req)
	other := createSession(t, fl.URL, req)
	const n = 8
	var keys []string
	var bodies [][]byte
	for i := 0; i < n; i++ {
		keys = append(keys, fmt.Sprintf("x/k%d{}", i))
		bodies = append(bodies, mustJSON(t, ObserveRequest{Violations: []WireViolation{{Assertion: keys[i]}}}))
	}
	analyze := mustJSON(t, AnalyzeRequest{Scheme: "scaf"})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, hop := range []struct {
				path string
				body []byte
			}{{"/observe", bodies[i]}, {"/analyze", analyze}} {
				resp, err := http.Post(fl.URL+"/sessions/"+info.ID+hop.path, "application/json", bytes.NewReader(hop.body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s %d: status %d", hop.path, i, resp.StatusCode)
				}
			}
		}(i)
	}
	wg.Wait()
	if fl.Router.isDown("b0") || fl.Router.isDown("b1") {
		t.Fatal("a backend was marked down")
	}
	for _, b := range fl.IDs() {
		m, err := fl.Metrics(b)
		if err != nil {
			t.Fatal(err)
		}
		if q := m.Sessions[info.ID].Quarantine; q == nil || !reflect.DeepEqual(q.Asserts, keys) {
			t.Errorf("%s: %s's quarantine is %+v, want asserts %v", b, info.ID, q, keys)
		}
		if q := m.Sessions[other.ID].Quarantine; q != nil {
			t.Errorf("%s: %s, which no event was reported on, lists quarantine %+v", b, other.ID, q)
		}
	}
}

// TestRouterRelaysNoQuarantineHeader: the router acts on the quarantine
// a backend names in X-Scaf-Quarantine but never relays the header.
// After an observe through a two-backend router, both backends name one
// fingerprint on their own replies and the router records it for the
// session, while no reply through the router, to /observe, /analyze,
// /query or /execute, carries the header.
func TestRouterRelaysNoQuarantineHeader(t *testing.T) {
	fl := startFleet(t, 2, false, RouterConfig{})
	info := createSession(t, fl.URL, CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"})
	ar := decode[AnalyzeResponse](t, mustAnalyze(t, fl.URL, info.ID))
	keys := harvestAsserts(ar)
	if len(keys) == 0 {
		t.Fatal("vacuous: no served answer was predicated on an assertion")
	}
	reads := sessionReads(t, ar)
	obs := ObserveRequest{Violations: []WireViolation{{Assertion: keys[0], Detail: "observed"}}}
	if st, hdr := postHeader(t, fl.URL, "/sessions/"+info.ID+"/observe", obs); st != http.StatusOK || hdr.Get(quarantineHeader) != "" {
		t.Fatalf("observe through the router: %d naming quarantine %q, want 200 naming none", st, hdr.Get(quarantineHeader))
	}

	var fp string
	for _, b := range fl.IDs() {
		st, hdr := postHeader(t, fl.BackendURL(b), "/sessions/"+info.ID+"/analyze", reads["/analyze"])
		got := hdr.Get(quarantineHeader)
		if st != http.StatusOK || got == "" || (fp != "" && got != fp) {
			t.Fatalf("%s: analyze %d naming quarantine %q, want 200 naming the other backend's %q", b, st, got, fp)
		}
		fp = got
	}
	fl.Router.mu.Lock()
	recorded := fl.Router.sessions[info.ID].fp
	fl.Router.mu.Unlock()
	if recorded != fp {
		t.Fatalf("the router recorded fingerprint %q, the backends name %q", recorded, fp)
	}
	for path, body := range reads {
		if st, hdr := postHeader(t, fl.URL, "/sessions/"+info.ID+path, body); st != http.StatusOK || hdr.Get(quarantineHeader) != "" {
			t.Errorf("%s through the router: %d naming quarantine %q, want 200 naming none", path, st, hdr.Get(quarantineHeader))
		}
	}
}

// mustAnalyze runs one scaf analyze of session id and returns the reply.
func mustAnalyze(t *testing.T, base, id string) []byte {
	t.Helper()
	st, raw := do(t, base, "POST", "/sessions/"+id+"/analyze", AnalyzeRequest{Scheme: "scaf"})
	if st != http.StatusOK {
		t.Fatalf("analyze %s at %s: %d %.300s", id, base, st, raw)
	}
	return raw
}

// TestRouterQueryFollowsItsLoop: the router places a /query on the
// backend its loop's analyze sub-request went to, whose shared cache
// holds the loop's batch answers, however the two requests spell the
// scheme. Every spelling of a scheme places every hot loop on one
// member. For each scheme, after one /analyze of a program through a
// two-backend router under one spelling, every query of the reply,
// asked through the router under the scheme's other spellings in turn,
// must be the analyze entry byte for byte, and together the backends
// must evaluate no module and look nothing up in the fleet tier. On the
// b0/b1 ring with session s1, placing by the raw spelling would split
// both programs: 183.equake's smvp/for_head.2 went to b1 as "scaf" and
// to b0 as "SCAF", 181.mcf's main/while_head.6 to b0 and b1.
func TestRouterQueryFollowsItsLoop(t *testing.T) {
	spellings := [][]string{
		{"caf", "CAF", "Caf"},
		{"Confluence", "confluence", "CONFLUENCE"},
		{"scaf", "SCAF", ""},
	}
	for _, bench := range []string{"183.equake", "181.mcf"} {
		t.Run(bench, func(t *testing.T) {
			fl := startFleet(t, 2, false, RouterConfig{})
			info := createSession(t, fl.URL, CreateSessionRequest{Bench: bench})
			work := func(t *testing.T) (evals, lookups int64) {
				for _, id := range fl.IDs() {
					_, raw := do(t, fl.BackendURL(id), "GET", "/metrics", nil)
					m := decode[MetricsResponse](t, raw)
					evals += m.Sessions[info.ID].Stats.ModuleEvals
					lookups += m.Fleet.LocalHits + m.Fleet.Misses
				}
				return evals, lookups
			}
			for _, sp := range spellings {
				t.Run(sp[0], func(t *testing.T) {
					for _, l := range info.HotLoops {
						owner := fl.Router.AnalyzeOwner(info.ID, sp[0], l.Name)
						for _, other := range sp[1:] {
							if o := fl.Router.AnalyzeOwner(info.ID, other, l.Name); o != owner {
								t.Errorf("loop %s: %q places it on %s, %q on %s", l.Name, sp[0], owner, other, o)
							}
						}
					}
					st, raw := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: sp[0]})
					if st != http.StatusOK {
						t.Fatalf("analyze: %d %.300s", st, raw)
					}
					ar := decode[struct {
						Results []struct {
							Loop    string            `json:"loop"`
							Queries []json.RawMessage `json:"queries"`
						} `json:"results"`
					}](t, raw)

					evals0, lookups0 := work(t)
					asked := 0
					for _, lr := range ar.Results {
						for _, want := range lr.Queries {
							q := decode[WireQuery](t, want)
							scheme := sp[1+asked%(len(sp)-1)]
							st, raw := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/query",
								QueryRequest{Scheme: scheme, Loop: lr.Loop, I1: q.I1, I2: q.I2, Rel: q.Rel})
							if st != http.StatusOK {
								t.Fatalf("query %q %s %s→%s: %d %.300s", scheme, lr.Loop, q.I1, q.I2, st, raw)
							}
							got := decode[struct {
								Query json.RawMessage `json:"query"`
							}](t, raw)
							if !bytes.Equal(got.Query, want) {
								t.Fatalf("query %q %s %s→%s diverged from its analyze entry:\ngot  %s\nwant %s", scheme, lr.Loop, q.I1, q.I2, got.Query, want)
							}
							asked++
						}
					}
					if asked == 0 {
						t.Fatal("the analyze reply held no queries")
					}
					evals1, lookups1 := work(t)
					if evals1 != evals0 || lookups1 != lookups0 {
						t.Fatalf("%d queries added %d module evals and %d tier lookups, want 0 and 0",
							asked, evals1-evals0, lookups1-lookups0)
					}
				})
			}
		})
	}
}

// TestRouterRefusesOversizedReply: a backend reply one byte longer than
// maxPeerResponse reaches the client as a bounded 502, not as the
// backend's 200 over a cut body, and the backend that sent it stays up:
// whether the reply is chunked or declares its length up front, which
// the router otherwise sizes its read buffer from. A probe hop (rejoin,
// catch-up, segment streaming) gets the same 502, uncounted in proxied.
func TestRouterRefusesOversizedReply(t *testing.T) {
	chunk := bytes.Repeat([]byte(" "), 1<<20)
	for _, declared := range []bool{false, true} {
		t.Run(fmt.Sprintf("declared=%v", declared), func(t *testing.T) {
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				if declared {
					w.Header().Set("Content-Length", strconv.Itoa(maxPeerResponse+1))
				}
				for n := 0; n < maxPeerResponse; n += len(chunk) {
					if _, err := w.Write(chunk); err != nil {
						return // the router stopped reading
					}
				}
				w.Write([]byte("1"))
			}))
			defer stub.Close()
			rt := NewRouter(RouterConfig{Backends: map[string]string{"b0": stub.URL}})
			defer rt.Close()

			rec := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sessions", nil))
			if rec.Code != http.StatusBadGateway {
				t.Fatalf("oversized backend reply relayed with status %d (%d bytes), want 502", rec.Code, rec.Body.Len())
			}
			if e := decode[ErrorResponse](t, rec.Body.Bytes()); e.Error.Code != "reply_too_large" {
				t.Fatalf("code %q, want reply_too_large", e.Error.Code)
			}
			if rt.isDown("b0") {
				t.Fatal("a backend that answered was marked down")
			}

			proxied := rt.proxied.Load()
			st, _, body := rt.send("b0", hop{method: http.MethodPost, path: "/fleet/segment", body: []byte("{}"), probe: true})
			if st != http.StatusBadGateway || decode[ErrorResponse](t, body).Error.Code != "reply_too_large" {
				t.Fatalf("oversized probe reply: status %d, %.200s; want 502 reply_too_large", st, body)
			}
			if rt.proxied.Load() != proxied {
				t.Fatal("a probe hop counted toward proxied")
			}
		})
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRouterReusesConnections: the router's backend pool grows with the
// requests in flight at once, not with the requests sent. The first
// batch of session lifecycles on generated programs dials what the
// fan-out needs; a second batch of the same lifecycles must reuse those
// connections. Every analyze sends at least three loops to one backend
// at once, more than the two idle connections per host
// http.DefaultTransport keeps, and each backend takes such a fan-out in
// every batch, so a pool sized like that transport's redials on every
// analyze. Each batch's sources end in a comment naming the batch. That
// changes their fleet digest and nothing else, so the second batch's
// answers are computed again instead of served warm from the first
// batch's cache entries. Each lifecycle also reports one violation of an
// assertion nothing rests on, which the router replicates to the
// session's other copy through the same pool.
func TestRouterReusesConnections(t *testing.T) {
	fl := startFleet(t, 2, false, RouterConfig{})
	// The oracle's hot-loop thresholds, as fleet-churn creates sessions.
	hot := &WireHotLoopParams{MinWeightFrac: 0.001, MinAvgIters: 1.5}
	// mcgen seeds whose programs have eight or more hot loops.
	seeds := []int64{5, 10, 23, 30, 44, 46, 47, 58, 62, 65, 69, 78, 92, 94, 106, 108}
	schemes := []string{"caf", "confluence", "scaf"}

	dials := func() int64 {
		rm, err := fl.RouterMetrics()
		if err != nil {
			t.Fatal(err)
		}
		return rm.Router.Dials
	}
	// batch runs one lifecycle per seed and returns the requests it sent
	// and the most loops one analyze sent.
	batch := func(n int) (requests, widest int) {
		fanned := map[string]bool{} // backends that took >= 3 loops of one analyze
		for _, seed := range seeds {
			src := mcgen.New(seed).Program() + fmt.Sprintf("// batch %d\n", n)
			info := createSession(t, fl.URL, CreateSessionRequest{
				Name: fmt.Sprintf("gen%d", seed), Source: src, HotLoops: hot})
			requests++
			widest = max(widest, len(info.HotLoops))
			for _, scheme := range schemes {
				per := map[string]int{}
				for _, l := range info.HotLoops {
					per[fl.Router.AnalyzeOwner(info.ID, scheme, l.Name)]++
				}
				most := 0
				for id, k := range per {
					most = max(most, k)
					if k >= 3 {
						fanned[id] = true
					}
				}
				if most < 3 {
					t.Fatalf("batch %d seed %d %s: analyze sends at most %d loops to a backend (%v), want >= 3", n, seed, scheme, most, per)
				}
				st, raw := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: scheme})
				requests++
				if st != http.StatusOK {
					t.Fatalf("batch %d seed %d: analyze %s: %d %.300s", n, seed, scheme, st, raw)
				}
				ar := decode[AnalyzeResponse](t, raw)
				for _, lr := range ar.Results {
					for _, q := range lr.Queries[:min(2, len(lr.Queries))] {
						qreq := QueryRequest{Scheme: scheme, Loop: lr.Loop, I1: q.I1, I2: q.I2, Rel: q.Rel}
						st, raw := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/query", qreq)
						requests++
						if st != http.StatusOK {
							t.Fatalf("batch %d seed %d: query: %d %.300s", n, seed, st, raw)
						}
					}
				}
			}
			obs := ObserveRequest{Violations: []WireViolation{{Assertion: fmt.Sprintf("nothing-rests-on/batch%d-seed%d", n, seed)}}}
			if st, raw := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/observe", obs); st != http.StatusOK {
				t.Fatalf("batch %d seed %d: observe: %d %.300s", n, seed, st, raw)
			}
			requests++
			if st, raw := do(t, fl.URL, "DELETE", "/sessions/"+info.ID, nil); st != http.StatusNoContent {
				t.Fatalf("batch %d seed %d: delete: %d %.300s", n, seed, st, raw)
			}
			requests++
		}
		if len(fanned) != len(fl.IDs()) {
			t.Fatalf("batch %d: only %v took a fan-out of 3 or more loops", n, fanned)
		}
		return requests, widest
	}

	batch(1)
	router1 := dials()
	if router1 == 0 {
		t.Fatal("first batch counted no router dials")
	}
	requests, widest := batch(2)
	router2 := dials()
	// A second batch may place a wider fan-out on a backend than the
	// first did, which adds at most that many connections per backend.
	bound := int64(widest * len(fl.IDs()))
	t.Logf("first batch: %d router dials; second batch of %d requests: +%d (bound %d)",
		router1, requests, router2-router1, bound)
	if router2-router1 > bound {
		t.Fatalf("second batch of %d requests dialed %d router connections, want <= %d",
			requests, router2-router1, bound)
	}
}

// startDropFleet puts a router in front of two plain backends. b1 hands
// each request to hold first, when hold is set, and aborts the n-th
// request whose method and path match before its handler runs, as a
// connection that breaks on the way in.
func startDropFleet(t *testing.T, method, path string, n int32, hold func(*http.Request)) (rt *Router, url, b0, b1 string) {
	t.Helper()
	var seen atomic.Int32
	return startFaultFleet(t, func(w http.ResponseWriter, r *http.Request) bool {
		if hold != nil {
			hold(r)
		}
		if r.Method == method && r.URL.Path == path && seen.Add(1) == n {
			panic(http.ErrAbortHandler)
		}
		return false
	})
}

// startFaultFleet puts a router in front of two plain backends. b1 hands
// each request to fault first, and serves it only when fault did not
// answer it (returned false).
func startFaultFleet(t *testing.T, fault func(http.ResponseWriter, *http.Request) bool) (rt *Router, url, b0, b1 string) {
	t.Helper()
	_, ts0 := newTestServer(t, Config{})
	srv1 := New(Config{})
	ts1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !fault(w, r) {
			srv1.Handler().ServeHTTP(w, r)
		}
	}))
	t.Cleanup(ts1.Close)
	rt = NewRouter(RouterConfig{Backends: map[string]string{"b0": ts0.URL, "b1": ts1.URL}})
	t.Cleanup(rt.Close)
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	return rt, rts.URL, ts0.URL, ts1.URL
}

// requireCaughtUp probes the fleet once and requires b1 back up, rejoined
// once, and listing its sessions byte for byte as b0 does.
func requireCaughtUp(t *testing.T, rt *Router, b0, b1 string) []SessionInfo {
	t.Helper()
	requireDown(t, rt)
	rt.Probe()
	return requireRejoined(t, rt, b0, b1)
}

// requireDown requires the dropped request to have marked b1 down.
func requireDown(t *testing.T, rt *Router) {
	t.Helper()
	if !rt.isDown("b1") {
		t.Fatal("vacuous: the dropped request did not mark b1 down")
	}
}

// requireRejoined requires b1 up, rejoined once, and listing its sessions
// byte for byte as b0 does.
func requireRejoined(t *testing.T, rt *Router, b0, b1 string) []SessionInfo {
	t.Helper()
	if rt.isDown("b1") || rt.rejoins.Load() != 1 {
		t.Fatalf("after a probe b1 is down=%v with rejoins=%d, want up and 1", rt.isDown("b1"), rt.rejoins.Load())
	}
	return requireSameSessions(t, b0, b1)
}

// requireSameSessions requires b1 to list its sessions byte for byte as
// b0 does, and returns them.
func requireSameSessions(t *testing.T, b0, b1 string) []SessionInfo {
	t.Helper()
	_, want := do(t, b0, "GET", "/sessions", nil)
	_, got := do(t, b1, "GET", "/sessions", nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("b1 lists\n%s\nwhere b0 lists\n%s", got, want)
	}
	return decode[[]SessionInfo](t, want)
}

// TestRouterRejoinAfterDroppedCreate: a create that never reaches one
// live backend must not strand it. b1 holds the first session, loses the
// second create on the way in (which marks it down) and misses the
// third; one probe catches it up.
func TestRouterRejoinAfterDroppedCreate(t *testing.T) {
	rt, url, b0, b1 := startDropFleet(t, http.MethodPost, "/sessions", 2, nil)
	for i := 0; i < 3; i++ {
		createSession(t, url, CreateSessionRequest{Name: fmt.Sprintf("small%d", i), Source: smallSource, Plan: "off"})
	}
	if got := requireCaughtUp(t, rt, b0, b1); len(got) != 3 {
		t.Fatalf("b0 lists %d sessions, want 3", len(got))
	}
}

// TestRouterRejoinAfterDroppedDelete: a delete that never reaches one
// live backend leaves it holding a session the fleet deleted; one probe
// removes it.
func TestRouterRejoinAfterDroppedDelete(t *testing.T) {
	rt, url, b0, b1 := startDropFleet(t, http.MethodDelete, "/sessions/s1", 1, nil)
	for i := 0; i < 2; i++ {
		createSession(t, url, CreateSessionRequest{Name: fmt.Sprintf("small%d", i), Source: smallSource, Plan: "off"})
	}
	if st, raw := do(t, url, "DELETE", "/sessions/s1", nil); st != http.StatusNoContent {
		t.Fatalf("delete: %d %s", st, raw)
	}
	if got := requireCaughtUp(t, rt, b0, b1); len(got) != 1 || got[0].ID != "s2" {
		t.Fatalf("b0 lists %+v, want only s2", got)
	}
}

// TestRouterRejoinLetsMutationsThrough: catching a backend up does not
// hold the fleet's creates and deletes. b1 loses the second create, so
// a probe catches it up; while the catch-up's create is held in b1's
// handler, a create through the router must answer within a client
// deadline, and the probe then catches b1 up on that create too.
func TestRouterRejoinLetsMutationsThrough(t *testing.T) {
	var holding atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unhold := func() { releaseOnce.Do(func() { close(release) }) }
	rt, url, b0, b1 := startDropFleet(t, http.MethodPost, "/sessions", 2, func(r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/sessions" && holding.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
	})
	t.Cleanup(unhold)
	for i := 0; i < 2; i++ {
		createSession(t, url, CreateSessionRequest{Name: fmt.Sprintf("small%d", i), Source: smallSource, Plan: "off"})
	}
	requireDown(t, rt)

	holding.Store(true)
	probed := make(chan struct{})
	go func() {
		defer close(probed)
		rt.Probe()
	}()
	select {
	case <-entered:
	case <-probed:
		t.Fatal("vacuous: the probe sent b1 no create")
	}
	client := &http.Client{Timeout: 3 * time.Second}
	body := mustJSON(t, CreateSessionRequest{Name: "during", Source: smallSource, Plan: "off"})
	resp, err := client.Post(url+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("create during b1's catch-up: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create during b1's catch-up: status %d, want 201", resp.StatusCode)
	}
	unhold()
	<-probed
	if got := requireRejoined(t, rt, b0, b1); len(got) != 3 {
		t.Fatalf("b0 lists %d sessions, want 3", len(got))
	}
}

// TestRouterConcurrentProbes: probes that run at once catch a backend up
// once. b1 loses a create; several goroutines then probe together, and
// exactly one rejoin is counted, with b1 listing what b0 lists.
func TestRouterConcurrentProbes(t *testing.T) {
	rt, url, b0, b1 := startDropFleet(t, http.MethodPost, "/sessions", 2, nil)
	for i := 0; i < 3; i++ {
		createSession(t, url, CreateSessionRequest{Name: fmt.Sprintf("small%d", i), Source: smallSource, Plan: "off"})
	}
	requireDown(t, rt)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.Probe()
		}()
	}
	wg.Wait()
	if got := requireRejoined(t, rt, b0, b1); len(got) != 3 {
		t.Fatalf("b0 lists %d sessions, want 3", len(got))
	}
}
