package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"scaf"
	"scaf/internal/ir"
	"scaf/internal/mcgen"
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
// drifted (here: a session created behind the router's back skews one
// backend's session-ID counter) must surface as 502 fleet_inconsistent on
// the next broadcast, never as silently divergent state.
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
}

// TestRouterBackendLossAndRejoin: killing a backend mid-service refuses
// exactly its shard (503 + Retry-After) while the other keeps answering;
// after a restart the router replays the session journal (same IDs,
// including sessions created during the outage) and re-syncs quarantine
// state, and the rejoined backend serves byte-identical answers.
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

	// Find one query homed on each backend.
	queryFor := func(owner string) *QueryRequest {
		for _, lr := range ar.Results {
			for _, q := range lr.Queries {
				req := QueryRequest{Scheme: "scaf", Loop: lr.Loop, I1: q.I1, I2: q.I2, Rel: q.Rel}
				if rt.ring.Owner(queryKey(info.ID, req)) == owner {
					return &req
				}
			}
		}
		return nil
	}
	qA, qB := queryFor("b0"), queryFor("b1")
	if qA == nil || qB == nil {
		t.Fatalf("query keys did not spread across both shards")
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
	// surviving backend and journaled for the dead one.
	info2 := createSession(t, fl.URL, CreateSessionRequest{Name: "small2", Source: smallSource, Plan: "off"})

	// A violation reported during the outage must reach b1 at rejoin. The
	// session owner may be the dead backend, so report directly to b0 (the
	// fleet broadcast towards the dead peer is tolerated noise).
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

	// Restart b1 and rejoin: journal replay + quarantine sync.
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
		t.Fatalf("replayed registry = %+v, want [%s %s]", sessions, info.ID, info2.ID)
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

// TestRouterRefusesOversizedReply: a backend reply one byte longer than
// maxPeerResponse reaches the client as a bounded 502, not as the
// backend's 200 over a cut body, and the backend that sent it stays up:
// whether the reply is chunked or declares its length up front, which
// the router otherwise sizes its read buffer from.
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

// TestRouterReusesConnections: the router's backend pool and the tiers'
// peer pools grow with the requests in flight at once, not with the
// requests sent. The first batch of session lifecycles on generated
// programs dials what the fan-out needs; a second batch of the same
// lifecycles must reuse those connections. Every analyze sends at least
// three loops to one backend at once, more than the two idle connections
// per host http.DefaultTransport keeps, and each backend takes such a
// fan-out in every batch, so a pool sized like that transport's redials
// on every analyze. Each batch's sources end in a comment naming the
// batch. That changes their fleet digest and nothing else, so the
// second batch's answers are computed and looked up across the peers
// again instead of served warm from the first batch's cache entries.
func TestRouterReusesConnections(t *testing.T) {
	fl := startFleet(t, 2, false, RouterConfig{})
	// The oracle's hot-loop thresholds, as fleet-churn creates sessions.
	hot := &WireHotLoopParams{MinWeightFrac: 0.001, MinAvgIters: 1.5}
	// mcgen seeds whose programs have eight or more hot loops.
	seeds := []int64{5, 10, 23, 30, 44, 46, 47, 58, 62, 65, 69, 78, 92, 94, 106, 108}
	schemes := []string{"caf", "confluence", "scaf"}

	dials := func() (router, peers int64) {
		rm, err := fl.RouterMetrics()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range fl.IDs() {
			m, err := fl.Metrics(id)
			if err != nil {
				t.Fatal(err)
			}
			peers += m.Fleet.Dials
		}
		return rm.Router.Dials, peers
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
	router1, peers1 := dials()
	if router1 == 0 || peers1 == 0 {
		t.Fatalf("first batch counted %d router and %d peer dials, want both > 0", router1, peers1)
	}
	requests, widest := batch(2)
	router2, peers2 := dials()
	// A second batch may place a wider fan-out on a backend than the
	// first did, which adds at most that many connections per backend.
	bound := int64(widest * len(fl.IDs()))
	t.Logf("first batch: %d router and %d peer dials; second batch of %d requests: +%d router, +%d peer (bound %d)",
		router1, peers1, requests, router2-router1, peers2-peers1, bound)
	if router2-router1 > bound || peers2-peers1 > bound {
		t.Fatalf("second batch of %d requests dialed %d router and %d peer connections, want each <= %d",
			requests, router2-router1, peers2-peers1, bound)
	}
}
