package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"scaf"
	"scaf/internal/interp"
	"scaf/internal/profile"
	"scaf/internal/spec"
)

// smallSource is a tiny MC program with one hot loop: the inner loop
// reads a[] and writes b[], so cross-iteration queries have real
// dependence structure without compress-scale query counts.
const smallSource = `
int a[64];
int b[64];

int main() {
  int t = 0;
  for (int r = 0; r < 40; r = r + 1) {
    for (int i = 0; i < 64; i = i + 1) {
      b[i] = a[i] + 1;
      t = t + b[i];
    }
  }
  return t;
}
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// do issues one JSON request and returns status + body.
func do(t *testing.T, base, method, path string, body any) (int, []byte) {
	t.Helper()
	st, _, out := doHeader(t, base, method, path, body)
	return st, out
}

// doHeader is do that also returns the reply's headers.
func doHeader(t *testing.T, base, method, path string, body any) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header, out
}

func decode[T any](t *testing.T, raw []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decoding %T from %s: %v", v, raw, err)
	}
	return v
}

func createSession(t *testing.T, base string, req CreateSessionRequest) SessionInfo {
	t.Helper()
	status, raw := do(t, base, "POST", "/sessions", req)
	if status != http.StatusCreated {
		t.Fatalf("create session: status %d, body %s", status, raw)
	}
	return decode[SessionInfo](t, raw)
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	info := createSession(t, ts.URL, CreateSessionRequest{Name: "small", Source: smallSource})
	if info.ID == "" || info.Name != "small" {
		t.Fatalf("unexpected session info: %+v", info)
	}
	if len(info.HotLoops) == 0 {
		t.Fatalf("expected hot loops, got none: %+v", info)
	}
	if info.Plan == nil {
		t.Fatalf("default plan mode should report a plan: %+v", info)
	}

	status, raw := do(t, ts.URL, "GET", "/sessions", nil)
	if status != http.StatusOK {
		t.Fatalf("list sessions: status %d", status)
	}
	if list := decode[[]SessionInfo](t, raw); len(list) != 1 || list[0].ID != info.ID {
		t.Fatalf("list = %+v, want exactly %s", list, info.ID)
	}

	status, raw = do(t, ts.URL, "GET", "/sessions/"+info.ID, nil)
	if status != http.StatusOK {
		t.Fatalf("get session: status %d, body %s", status, raw)
	}

	if status, _ = do(t, ts.URL, "DELETE", "/sessions/"+info.ID, nil); status != http.StatusNoContent {
		t.Fatalf("delete session: status %d", status)
	}
	status, raw = do(t, ts.URL, "GET", "/sessions/"+info.ID, nil)
	if status != http.StatusNotFound {
		t.Fatalf("get deleted session: status %d, body %s", status, raw)
	}
	if e := decode[ErrorResponse](t, raw); e.Error.Code != "not_found" {
		t.Fatalf("error code = %q, want not_found", e.Error.Code)
	}
}

// TestSessionMintedID pins the backend's half of the router's ID
// contract: a create takes the ID sent in sessionIDHeader, a held one is
// refused with 409, a create without one skips past every ID handed
// over, the reply names the ID a create consumed (a refused build
// consumes it, a malformed body does not), and the list is in numeric ID
// order.
func TestSessionMintedID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	good := string(mustJSON(t, CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}))
	post := func(minted, body string) (int, string, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/sessions", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if minted != "" {
			req.Header.Set(sessionIDHeader, minted)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get(sessionIDHeader), raw
	}
	for _, c := range []struct {
		minted, body string
		status       int
		consumed     string
	}{
		{"s10", good, http.StatusCreated, "s10"},
		{"s10", good, http.StatusConflict, ""},
		{"s9", good, http.StatusCreated, "s9"},
		{"", good, http.StatusCreated, "s11"},
		{"s12", "{", http.StatusBadRequest, ""},
		{"s012", good, http.StatusBadRequest, ""},
		{"s12", `{"name":"none"}`, http.StatusBadRequest, "s12"},
		{"", good, http.StatusCreated, "s13"},
	} {
		status, consumed, raw := post(c.minted, c.body)
		if status != c.status || consumed != c.consumed {
			t.Fatalf("create with %q %.20s: %d naming %q, want %d naming %q (%s)",
				c.minted, c.body, status, consumed, c.status, c.consumed, raw)
		}
		if status == http.StatusCreated {
			if info := decode[SessionInfo](t, raw); info.ID != consumed {
				t.Fatalf("created %s under header %q", info.ID, consumed)
			}
		}
	}
	_, raw := do(t, ts.URL, "GET", "/sessions", nil)
	var ids []string
	for _, info := range decode[[]SessionInfo](t, raw) {
		ids = append(ids, info.ID)
	}
	if want := []string{"s9", "s10", "s11", "s13"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("list order %v, want %v", ids, want)
	}
}

func TestCreateSessionErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		body   any
		status int
		code   string
	}{
		{"empty", CreateSessionRequest{}, http.StatusBadRequest, "bad_request"},
		{"unknown bench", CreateSessionRequest{Bench: "999.nope"}, http.StatusNotFound, "not_found"},
		{"bench and source", CreateSessionRequest{Bench: "129.compress", Source: smallSource},
			http.StatusBadRequest, "bad_request"},
		{"bad syntax", CreateSessionRequest{Name: "x", Source: "int main( {"},
			http.StatusUnprocessableEntity, "load_failed"},
		{"bad plan mode", CreateSessionRequest{Name: "x", Source: smallSource, Plan: "maybe"},
			http.StatusBadRequest, "bad_request"},
		{"unknown json field", map[string]any{"sourcecode": smallSource},
			http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		status, raw := do(t, ts.URL, "POST", "/sessions", tc.body)
		if status != tc.status {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, status, tc.status, raw)
			continue
		}
		if e := decode[ErrorResponse](t, raw); e.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, e.Error.Code, tc.code)
		}
	}
	if status, _ := do(t, ts.URL, "GET", "/sessions", nil); status != http.StatusOK {
		t.Fatalf("list after failed creates: status %d", status)
	}
}

// TestSessionRejectsViolatingPlan is the end-to-end validation gate: a
// client-supplied control-speculation assertion claiming an edge is
// never taken, when profiling shows it is, must reject the whole
// session with a structured 422 — the daemon never serves answers
// predicated on a plan that failed validation.
func TestSessionRejectsViolatingPlan(t *testing.T) {
	sys, err := scaf.Load("small", smallSource, scaf.Options{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	// Find an edge the training run actually takes.
	var taken *profile.EdgeKey
	for k, n := range sys.Profiles.Edge.EdgeCount {
		if n > 0 && k.From.Fn.Name == "main" {
			k := k
			taken = &k
			break
		}
	}
	if taken == nil {
		t.Fatal("no taken edge in profile")
	}

	_, ts := newTestServer(t, Config{})
	status, raw := do(t, ts.URL, "POST", "/sessions", CreateSessionRequest{
		Name:   "small",
		Source: smallSource,
		Assertions: []WireAssertion{{
			Module: spec.NameControlSpec,
			Kind:   "never-taken-edge",
			Points: []WirePoint{{
				Fn:     "main",
				Block:  taken.From.String(),
				EdgeTo: taken.To.String(),
			}},
			Cost: 1,
		}},
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (body %s)", status, raw)
	}
	e := decode[ErrorResponse](t, raw)
	if e.Error.Code != "plan_validation_failed" {
		t.Fatalf("code %q, want plan_validation_failed", e.Error.Code)
	}
	if len(e.Error.Violations) == 0 {
		t.Fatalf("expected structured violations, got none: %s", raw)
	}
	if v := e.Error.Violations[0]; v.Assertion == "" || v.Detail == "" {
		t.Fatalf("violation lacks detail: %+v", v)
	}

	// The rejected session must not be registered.
	if _, raw := do(t, ts.URL, "GET", "/sessions", nil); len(decode[[]SessionInfo](t, raw)) != 0 {
		t.Fatalf("rejected session leaked into the registry: %s", raw)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := createSession(t, ts.URL, CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"})

	if status, _ := do(t, ts.URL, "POST", "/sessions/nope/analyze", AnalyzeRequest{}); status != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", status)
	}
	if status, _ := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/analyze",
		AnalyzeRequest{Scheme: "magic"}); status != http.StatusBadRequest {
		t.Errorf("unknown scheme: status %d, want 400", status)
	}
	if status, _ := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/analyze",
		AnalyzeRequest{Loops: []string{"main/nope.0"}}); status != http.StatusNotFound {
		t.Errorf("unknown loop: status %d, want 404", status)
	}
	if status, _ := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/query",
		QueryRequest{Loop: info.HotLoops[0].Name, I1: "bogus", I2: "bogus"}); status != http.StatusBadRequest {
		t.Errorf("malformed query target: status %d, want 400", status)
	}
	if status, _ := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/query",
		QueryRequest{Loop: info.HotLoops[0].Name, I1: "main#99999", I2: "main#99999"}); status != http.StatusNotFound {
		t.Errorf("missing query target: status %d, want 404", status)
	}
}

func TestAdmissionControl(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, MaxQueue: 1})
	info := createSession(t, ts.URL, CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"})

	// Occupy the only worker slot and fill the queue.
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()
	srv.queued.Add(1)
	defer srv.queued.Add(-1)

	req, err := http.NewRequest("POST", ts.URL+"/sessions/"+info.ID+"/analyze",
		bytes.NewReader([]byte(`{"scheme":"scaf"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if e := decode[ErrorResponse](t, raw); e.Error.Code != "overloaded" {
		t.Fatalf("code %q, want overloaded", e.Error.Code)
	}
	if srv.rejected.Load() == 0 {
		t.Fatal("rejection not counted")
	}

	// A caller that gives up while queued gets 503, and its queue slot is
	// reclaimed.
	ctx, cancel := context.WithCancel(context.Background())
	r := httptest.NewRequest("POST", "/x", nil).WithContext(ctx)
	srv.queued.Add(-1) // make room in the queue so admit() blocks
	done := make(chan *httpError, 1)
	go func() {
		release, he := srv.admit(r)
		if release != nil {
			release()
		}
		done <- he
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case he := <-done:
		if he == nil || he.status != http.StatusServiceUnavailable {
			t.Fatalf("queued+canceled admit = %+v, want 503", he)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("admit did not observe cancellation")
	}
	srv.queued.Add(1) // restore for the deferred drain
	if got := srv.queued.Load(); got != 1 {
		t.Fatalf("queue depth after cancel = %d, want 1 (the artificial entry)", got)
	}
}

func TestGracefulDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	// Simulate one in-flight request: Shutdown must wait for it.
	if !srv.enter() {
		t.Fatal("enter refused before drain")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown returned before in-flight request finished")
	}
	cancel()

	// New work is refused while draining.
	status, raw := do(t, ts.URL, "GET", "/healthz", nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503 (body %s)", status, raw)
	}
	if e := decode[ErrorResponse](t, raw); e.Error.Code != "draining" {
		t.Fatalf("code %q, want draining", e.Error.Code)
	}

	// Once the last request completes, Shutdown unblocks.
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()
	time.Sleep(10 * time.Millisecond)
	srv.exit()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown after drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not unblock when in-flight count hit zero")
	}

	// Idempotent once drained.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

func TestMetricsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := createSession(t, ts.URL, CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"})

	status, raw := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: "scaf"})
	if status != http.StatusOK {
		t.Fatalf("analyze: status %d, body %s", status, raw)
	}
	ar := decode[AnalyzeResponse](t, raw)
	if len(ar.Results) != len(info.HotLoops) {
		t.Fatalf("analyze returned %d results for %d hot loops", len(ar.Results), len(info.HotLoops))
	}

	status, raw = do(t, ts.URL, "GET", "/healthz", nil)
	if status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	if h := decode[HealthResponse](t, raw); h.Status != "ok" || h.Sessions != 1 {
		t.Fatalf("healthz = %+v", h)
	}

	status, raw = do(t, ts.URL, "GET", "/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	m := decode[MetricsResponse](t, raw)
	if m.Server.Accepted == 0 || m.Server.LoopsServed == 0 {
		t.Fatalf("server counters not advancing: %+v", m.Server)
	}
	if m.Server.InFlight != 1 {
		// The /metrics request itself is the one in flight.
		t.Fatalf("in_flight = %d, want 1", m.Server.InFlight)
	}
	sm, ok := m.Sessions[info.ID]
	if !ok {
		t.Fatalf("no metrics for session %s: %s", info.ID, raw)
	}
	if sm.Stats.TopQueries == 0 || sm.Stats.ModuleEvals == 0 {
		t.Fatalf("session stats empty: %+v", sm.Stats)
	}
	if sm.Latency == nil || sm.Latency.Samples == 0 {
		t.Fatalf("no latency samples: %+v", sm.Latency)
	}
	if int64(sm.Latency.Samples) != sm.Stats.TopQueries {
		t.Fatalf("latency samples %d != top queries %d", sm.Latency.Samples, sm.Stats.TopQueries)
	}
	if sm.Latency.TotalWrk != sm.Stats.ModuleEvals {
		t.Fatalf("work samples total %d != module evals %d — the deterministic "+
			"work measure must partition exactly across queries",
			sm.Latency.TotalWrk, sm.Stats.ModuleEvals)
	}
	if sm.Trace == nil {
		t.Fatal("trace metrics missing with tracing on")
	}
	if !sm.Trace.Reconciles {
		t.Fatalf("trace does not reconcile with stats: %+v vs %+v", sm.Trace, sm.Stats)
	}
	if sm.Trace.TopQueries != sm.Stats.TopQueries {
		t.Fatalf("trace top queries %d != stats %d", sm.Trace.TopQueries, sm.Stats.TopQueries)
	}
}

// TestDeadlineBoundedAnalyze drives the deadline path: an already-expired
// budget must still produce a complete, well-formed (conservative)
// response, count its misses, and leave the session's shared caches
// untouched for later deadline-free callers.
func TestDeadlineBoundedAnalyze(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := createSession(t, ts.URL, CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"})

	// Reference answer from a fresh server (deadline-free, cold caches).
	_, ts2 := newTestServer(t, Config{})
	info2 := createSession(t, ts2.URL, CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"})
	_, wantRaw := do(t, ts2.URL, "POST", "/sessions/"+info2.ID+"/analyze", AnalyzeRequest{Scheme: "scaf"})
	want := decode[AnalyzeResponse](t, wantRaw)

	status, raw := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/analyze",
		AnalyzeRequest{Scheme: "scaf", DeadlineMS: 1})
	if status != http.StatusOK {
		t.Fatalf("deadline analyze: status %d, body %s", status, raw)
	}
	br := decode[AnalyzeResponse](t, raw)
	if len(br.Results) != len(info.HotLoops) {
		t.Fatalf("deadline analyze returned %d results, want %d", len(br.Results), len(info.HotLoops))
	}
	for _, r := range br.Results {
		if len(r.Queries) == 0 {
			t.Fatalf("deadline-bounded result for %s lost its queries", r.Loop)
		}
	}

	// The same session must now serve the exact deadline-free answer: a
	// degraded resolution must never have been published to the shared
	// cache (core.SharedCache's completeness rule, exercised end to end).
	status, raw = do(t, ts.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: "scaf"})
	if status != http.StatusOK {
		t.Fatalf("follow-up analyze: status %d", status)
	}
	got := decode[AnalyzeResponse](t, raw)
	gotJSON, _ := json.Marshal(got.Results)
	wantJSON, _ := json.Marshal(want.Results)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("deadline-free answers diverged after a deadline-bounded request:\ngot  %s\nwant %s",
			gotJSON, wantJSON)
	}
}

func TestPreload(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark load in -short")
	}
	srv := New(Config{})
	info, err := srv.Preload("129.compress")
	if err != nil {
		t.Fatalf("preload: %v", err)
	}
	if info.Name != "129.compress" || len(info.HotLoops) == 0 {
		t.Fatalf("preload info: %+v", info)
	}
	if _, err := srv.Preload("999.nope"); err == nil {
		t.Fatal("preload of unknown benchmark succeeded")
	}
}

// TestCreateRunsNoMemDepProfiler: a session create profiles only what
// sessions read. The memory-dependence profile, which only the memspec
// baseline reads, stays uncollected.
func TestCreateRunsNoMemDepProfiler(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark load in -short")
	}
	srv := New(Config{})
	info, err := srv.Preload("175.vpr")
	if err != nil {
		t.Fatalf("preload: %v", err)
	}
	srv.mu.Lock()
	sess := srv.sessions[info.ID]
	srv.mu.Unlock()
	if sess == nil {
		t.Fatalf("no session %s", info.ID)
	}
	// System keeps the profile MemSpec collects unexported; read it
	// through reflect, failing if the field is renamed away.
	memdep := reflect.ValueOf(sess.sys).Elem().FieldByName("memdep")
	if !memdep.IsValid() {
		t.Fatal("scaf.System has no memdep field")
	}
	if !memdep.IsNil() {
		t.Fatal("a session create collected the memory-dependence profile")
	}
}

func TestQueryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := createSession(t, ts.URL, CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"})
	loop := info.HotLoops[0].Name

	// Get a real query pair from a batch analysis.
	_, raw := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/analyze",
		AnalyzeRequest{Scheme: "scaf", Loops: []string{loop}})
	ar := decode[AnalyzeResponse](t, raw)
	if len(ar.Results) != 1 || len(ar.Results[0].Queries) == 0 {
		t.Fatalf("no queries to re-ask: %s", raw)
	}
	ref := ar.Results[0].Queries[0]

	status, raw := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/query", QueryRequest{
		Scheme: "scaf", Loop: loop, I1: ref.I1, I2: ref.I2, Rel: ref.Rel,
	})
	if status != http.StatusOK {
		t.Fatalf("query: status %d, body %s", status, raw)
	}
	qr := decode[QueryResponse](t, raw)
	refJSON, _ := json.Marshal(ref)
	gotJSON, _ := json.Marshal(qr.Query)
	if !bytes.Equal(refJSON, gotJSON) {
		t.Fatalf("single query diverges from its batch twin:\ngot  %s\nwant %s", gotJSON, refJSON)
	}

	// Deadline-bounded single query: must answer (possibly conservatively).
	status, raw = do(t, ts.URL, "POST", "/sessions/"+info.ID+"/query", QueryRequest{
		Scheme: "scaf", Loop: loop, I1: ref.I1, I2: ref.I2, Rel: ref.Rel, DeadlineMS: 1,
	})
	if status != http.StatusOK {
		t.Fatalf("deadline query: status %d, body %s", status, raw)
	}
	if q := decode[QueryResponse](t, raw); q.Query.I1 != ref.I1 || q.Query.I2 != ref.I2 {
		t.Fatalf("deadline query answered the wrong pair: %s", raw)
	}
}

func TestInstrRefRoundTrip(t *testing.T) {
	fn, id, err := splitInstrRef("main#17")
	if err != nil || fn != "main" || id != 17 {
		t.Fatalf("splitInstrRef = %q,%d,%v", fn, id, err)
	}
	for _, bad := range []string{"", "main", "#3", "main#", "main#x", fmt.Sprintf("#%d", 1)} {
		if _, _, err := splitInstrRef(bad); err == nil {
			t.Errorf("splitInstrRef(%q) accepted", bad)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		p    int
		want int64
	}{{50, 50}, {90, 90}, {99, 100}, {100, 100}, {1, 10}}
	for _, c := range cases {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%d = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of empty = %d", got)
	}
	if got := percentile([]int64{7}, 50); got != 7 {
		t.Errorf("p50 of singleton = %d", got)
	}
}

// TestSessionHotLoopOverride: the hot_loops request field widens (or
// narrows) which loops the session analyzes; invalid thresholds are a
// structured 400. The oracle's server-drift check depends on this field to
// align the daemon's loop set with the in-process analysis.
func TestSessionHotLoopOverride(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Default thresholds (weight 0.10, avg iters 50): only the 64-iteration
	// inner loop of smallSource qualifies.
	def := createSession(t, ts.URL, CreateSessionRequest{Name: "def", Source: smallSource})
	if len(def.HotLoops) != 1 {
		t.Fatalf("default hot loops = %d, want 1: %+v", len(def.HotLoops), def.HotLoops)
	}

	// Loosened thresholds pick up the 40-iteration outer loop too.
	loose := createSession(t, ts.URL, CreateSessionRequest{
		Name: "loose", Source: smallSource,
		HotLoops: &WireHotLoopParams{MinWeightFrac: 0.001, MinAvgIters: 1.5},
	})
	if len(loose.HotLoops) <= len(def.HotLoops) {
		t.Fatalf("loose thresholds found %d loops, default %d — override had no effect",
			len(loose.HotLoops), len(def.HotLoops))
	}

	// Impossible thresholds: a valid session with no hot loops.
	none := createSession(t, ts.URL, CreateSessionRequest{
		Name: "none", Source: smallSource,
		HotLoops: &WireHotLoopParams{MinWeightFrac: 0.5, MinAvgIters: 1e9},
	})
	if len(none.HotLoops) != 0 {
		t.Fatalf("impossible thresholds still found loops: %+v", none.HotLoops)
	}

	// Non-positive thresholds are a client error, not a silent default.
	for _, bad := range []WireHotLoopParams{
		{MinWeightFrac: 0, MinAvgIters: 2},
		{MinWeightFrac: 0.01, MinAvgIters: -1},
	} {
		bad := bad
		status, raw := do(t, ts.URL, "POST", "/sessions",
			CreateSessionRequest{Name: "bad", Source: smallSource, HotLoops: &bad})
		if status != http.StatusBadRequest {
			t.Fatalf("thresholds %+v: status %d, want 400 (body %s)", bad, status, raw)
		}
		if e := decode[ErrorResponse](t, raw); e.Error.Code != "bad_request" {
			t.Fatalf("thresholds %+v: code %q, want bad_request", bad, e.Error.Code)
		}
	}
}

// execSource is a program with one DOALL loop and one reduction, and
// execHotLoops thresholds low enough to make both hot.
const execSource = `
int a[64];
void main() {
    for (int i = 0; i < 64; i++) {
        a[i] = i * 7 + 3;
    }
    int s = 0;
    for (int i = 0; i < 64; i++) {
        s = s + a[i];
    }
    print(s);
}
`

var execHotLoops = &WireHotLoopParams{MinWeightFrac: 0.001, MinAvgIters: 1.5}

// TestExecuteEndpoint: POST /execute runs the session's program under the
// speculative-parallel runtime and the result must match a serial
// interpretation byte-for-byte — output and memory digest — while the
// report shows actual speculation happened on the DOALL loop.
func TestExecuteEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	src := execSource
	hot := execHotLoops
	info := createSession(t, ts.URL, CreateSessionRequest{Name: "exec", Source: src, HotLoops: hot})

	sys, err := scaf.Load("exec", src, scaf.Options{HotLoops: &profile.HotLoopParams{
		MinWeightFrac: hot.MinWeightFrac, MinAvgIters: hot.MinAvgIters}})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := interp.Run(sys.Mod, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}

	status, raw := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/execute", ExecuteRequest{Scheme: "scaf", Workers: 4, MinIters: 2})
	if status != http.StatusOK {
		t.Fatalf("execute: status %d, body %s", status, raw)
	}
	resp := decode[ExecuteResponse](t, raw)
	if fmt.Sprint(resp.Report.Output) != fmt.Sprint(serial.Output) {
		t.Fatalf("output diverged: %v want %v", resp.Report.Output, serial.Output)
	}
	if resp.Report.MemDigest != serial.Mem.Digest() {
		t.Fatalf("memory digest diverged")
	}
	if resp.Report.SpecIters == 0 || resp.Report.DoallLoops == 0 {
		t.Fatalf("nothing was speculated: %+v", resp.Report)
	}
	if resp.Report.Misspecs != 0 || resp.NewAsserts != 0 {
		t.Fatalf("honest plan misspeculated: %+v", resp)
	}

	// Invalid requests are 400s, unknown sessions 404s.
	if status, _ := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/execute", ExecuteRequest{Scheme: "bogus"}); status != http.StatusBadRequest {
		t.Fatalf("bogus scheme: status %d, want 400", status)
	}
	if status, _ := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/execute", ExecuteRequest{Workers: 9999}); status != http.StatusBadRequest {
		t.Fatalf("oversized workers: status %d, want 400", status)
	}
	if status, _ := do(t, ts.URL, "POST", "/sessions/nope/execute", ExecuteRequest{}); status != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", status)
	}

	// The serving counter moved.
	status, raw = do(t, ts.URL, "GET", "/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	if m := decode[MetricsResponse](t, raw); m.Server.Executions != 1 {
		t.Fatalf("executions counter = %d, want 1", m.Server.Executions)
	}
}

// TestWireBodiesPinned pins two wire bodies byte for byte on a fresh
// session of execSource: the session's /metrics "stats" object after one
// SCAF /analyze, and the /execute "report" object with its wall-clock
// value masked. Both are compact JSON encoded from live records, so a
// change to a field's name, order, tag or value shows here.
func TestWireBodiesPinned(t *testing.T) {
	h := New(Config{}).Handler()
	serve := func(method, path, body string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code/100 != 2 {
			t.Fatalf("%s %s: status %d, body %.300s", method, path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	create, err := json.Marshal(CreateSessionRequest{Name: "exec", Source: execSource, HotLoops: execHotLoops})
	if err != nil {
		t.Fatal(err)
	}
	id := decode[SessionInfo](t, serve("POST", "/sessions", string(create))).ID
	serve("POST", "/sessions/"+id+"/analyze", `{"scheme":"scaf"}`)
	exec := decode[struct {
		Report json.RawMessage `json:"report"`
	}](t, serve("POST", "/sessions/"+id+"/execute", `{"scheme":"scaf","workers":4,"min_iters":2}`))
	metrics := decode[struct {
		Sessions map[string]struct {
			Stats json.RawMessage `json:"stats"`
		} `json:"sessions"`
	}](t, serve("GET", "/metrics", ""))

	const wantStats = `{"top_queries":1,"premise_queries":1,"module_evals":19,"conflicts":0,"cache_hits":0,"shared_hits":0,"timeouts":0,"cycle_breaks":0,"depth_limits":0,"module_panics":0}`
	if got := string(metrics.Sessions[id].Stats); got != wantStats {
		t.Errorf("/metrics stats:\n got %s\nwant %s", got, wantStats)
	}
	const wantReport = `{"output":["14304"],"steps":1420,"mem_digest":8758152533244847033,"loops":[{"loop":"main/for_head.2","invocations":1,"spec_invocations":1,"chunks":4,"committed_chunks":4,"aborted_chunks":0,"spec_iters":64,"serial_iters":0,"misspecs":0},{"loop":"main/for_head.6","refusal":"shape: 2 header phis (loop-carried values)","invocations":0,"spec_invocations":0,"chunks":0,"committed_chunks":0,"aborted_chunks":0,"spec_iters":0,"serial_iters":0,"misspecs":0}],"doall_loops":1,"refused_loops":1,"spec_invocations":1,"chunks":4,"committed_chunks":4,"aborted_chunks":0,"spec_iters":64,"serial_iters":0,"misspecs":0,"replan_rounds":0,"wall_nanos":0}`
	report := regexp.MustCompile(`"wall_nanos":[0-9]+`).ReplaceAllString(string(exec.Report), `"wall_nanos":0`)
	if report != wantReport {
		t.Errorf("/execute report:\n got %s\nwant %s", report, wantReport)
	}
}
