package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scaf"
	"scaf/internal/core"
	"scaf/internal/recovery"
)

// indirectSource's inner loop stores through a profiled index load —
// a dependence no module proves away, so the orchestrator consults the
// whole ensemble (including appended fault injectors) instead of bailing
// at an early definite answer.
const indirectSource = `
int a[64];
int idx[64];

int main() {
  int t = 0;
  for (int r = 0; r < 40; r = r + 1) {
    for (int i = 0; i < 64; i = i + 1) {
      a[idx[i]] = a[i] + 1;
      t = t + a[i];
    }
  }
  return t;
}
`

// harvestAsserts collects every distinct assertion key supporting any
// served option, sorted.
func harvestAsserts(ar AnalyzeResponse) []string {
	seen := map[string]bool{}
	var keys []string
	for _, r := range ar.Results {
		for _, q := range r.Queries {
			for _, o := range q.Options {
				for _, a := range o.Asserts {
					if !seen[a] {
						seen[a] = true
						keys = append(keys, a)
					}
				}
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// analyzeJSON runs one deadline-free scaf analyze and returns the
// results' canonical bytes.
func analyzeJSON(t *testing.T, base, id string) []byte {
	t.Helper()
	status, raw := do(t, base, "POST", "/sessions/"+id+"/analyze", AnalyzeRequest{Scheme: "scaf"})
	if status != http.StatusOK {
		t.Fatalf("analyze: status %d, body %s", status, raw)
	}
	ar := decode[AnalyzeResponse](t, raw)
	b, err := json.Marshal(ar.Results)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// excludedRefs computes the cold-run reference with keys quarantined, via
// the serial library path and the pdg.ParallelClient path (with a
// revoker-attached SharedCache), and requires the two to agree. What it
// returns is the recovery guarantee's right-hand side: the bytes a fresh
// analysis that never speculated on those assertions would serve.
func excludedRefs(t *testing.T, src string, keys []string, modules []string) []byte {
	t.Helper()
	sys, err := scaf.Load("small", src, scaf.Options{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	q := recovery.New()
	for _, k := range keys {
		q.AddAssert(k, "ref")
	}
	for _, m := range modules {
		q.AddModule(m, "ref")
	}

	client := sys.Client()
	o := sys.Orchestrator(scaf.SchemeSCAF, scaf.WithModuleWrapper(recovery.Wrapper(q)))
	var serial []WireLoopResult
	for _, l := range sys.HotLoops() {
		serial = append(serial, EncodeLoopResult(client.AnalyzeLoop(o, l)))
	}
	serialJSON, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}

	sc := core.NewSharedCache()
	sc.SetRevoker(q)
	pc := sys.ParallelClient(4, scaf.SchemeSCAF,
		scaf.WithSharedCache(sc), scaf.WithModuleWrapper(recovery.Wrapper(q)))
	pres, _ := pc.AnalyzeLoops(sys.HotLoops())
	var par []WireLoopResult
	for _, r := range pres {
		par = append(par, EncodeLoopResult(r))
	}
	parJSON, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialJSON, parJSON) {
		t.Fatalf("serial and parallel excluded-assertion references diverge:\nserial   %.400s\nparallel %.400s",
			serialJSON, parJSON)
	}
	return serialJSON
}

// TestObserveRecoveryEquivalence is the misspeculation-recovery
// guarantee, end to end: after POST /observe reports violated
// assertions, the session's answers are byte-identical to a cold
// analysis run that had those assertions excluded from the start — on
// both the serial and the pdg.ParallelClient reference paths.
func TestObserveRecoveryEquivalence(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := createSession(t, ts.URL, CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"})

	status, raw := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: "scaf"})
	if status != http.StatusOK {
		t.Fatalf("analyze: status %d, body %s", status, raw)
	}
	before := decode[AnalyzeResponse](t, raw)
	keys := harvestAsserts(before)
	if len(keys) == 0 {
		t.Fatal("vacuous test: no served answer was predicated on an assertion")
	}

	wantJSON := excludedRefs(t, smallSource, keys, nil)

	// Report every predicating assertion as violated.
	var vs []WireViolation
	for _, k := range keys {
		vs = append(vs, WireViolation{Assertion: k, Detail: "observed in production"})
	}
	status, raw = do(t, ts.URL, "POST", "/sessions/"+info.ID+"/observe", ObserveRequest{Violations: vs})
	if status != http.StatusOK {
		t.Fatalf("observe: status %d, body %s", status, raw)
	}
	or := decode[ObserveResponse](t, raw)
	if or.NewAsserts != len(keys) {
		t.Fatalf("new_asserts = %d, want %d", or.NewAsserts, len(keys))
	}
	if or.Invalidated == 0 {
		t.Fatalf("nothing invalidated, yet the pre-observe answers were predicated on %v", keys)
	}
	if or.Reresolved != or.Invalidated {
		t.Fatalf("reresolved %d of %d invalidated queries", or.Reresolved, or.Invalidated)
	}
	if len(or.Quarantine.Asserts) != len(keys) {
		t.Fatalf("quarantine asserts = %v, want %v", or.Quarantine.Asserts, keys)
	}

	// Post-recovery serving: the re-resolved warm pass and a second pass
	// must both serve the cold excluded-assertion bytes, and never
	// re-offer a quarantined assertion.
	for pass := 0; pass < 2; pass++ {
		status, raw = do(t, ts.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: "scaf"})
		if status != http.StatusOK {
			t.Fatalf("post-observe analyze pass %d: status %d", pass, status)
		}
		after := decode[AnalyzeResponse](t, raw)
		gotJSON, _ := json.Marshal(after.Results)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("pass %d: recovered answers differ from the cold excluded-assertion run\ngot  %.600s\nwant %.600s",
				pass, gotJSON, wantJSON)
		}
		quarantined := map[string]bool{}
		for _, k := range keys {
			quarantined[k] = true
		}
		for _, k := range harvestAsserts(after) {
			if quarantined[k] {
				t.Fatalf("pass %d: quarantined assertion %q re-offered", pass, k)
			}
		}
	}

	// Re-reporting a quarantined assertion is flakiness, not new state.
	status, raw = do(t, ts.URL, "POST", "/sessions/"+info.ID+"/observe", ObserveRequest{Violations: vs[:1]})
	if status != http.StatusOK {
		t.Fatalf("repeat observe: status %d", status)
	}
	or2 := decode[ObserveResponse](t, raw)
	if or2.NewAsserts != 0 || or2.Invalidated != 0 || or2.Reresolved != 0 {
		t.Fatalf("repeat observe changed state: %+v", or2)
	}
	if or2.Quarantine.Repeats == 0 {
		t.Fatalf("repeat not counted as flaky: %+v", or2.Quarantine)
	}

	// /metrics surfaces the quarantine and still reconciles.
	_, raw = do(t, ts.URL, "GET", "/metrics", nil)
	m := decode[MetricsResponse](t, raw)
	sm, ok := m.Sessions[info.ID]
	if !ok {
		t.Fatalf("no session metrics: %s", raw)
	}
	if sm.Quarantine == nil || len(sm.Quarantine.Asserts) != len(keys) {
		t.Fatalf("metrics quarantine = %+v, want %d asserts", sm.Quarantine, len(keys))
	}
	if sm.Trace != nil && !sm.Trace.Reconciles {
		t.Fatalf("trace no longer reconciles after recovery: %+v vs %+v", sm.Trace, sm.Stats)
	}
	if m.Server.Observations < 2 {
		t.Fatalf("observations counter = %d, want >= 2", m.Server.Observations)
	}
}

// TestObserveModuleWithdrawal: withdrawing a module wholesale flushes
// every cached answer (module influence is not entry-attributable) and
// later serving matches a cold run with the module quarantined; the
// withdrawn module never contributes again.
func TestObserveModuleWithdrawal(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := createSession(t, ts.URL, CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"})

	// Warm the cache and find a module that actually predicates answers.
	status, raw := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: "scaf"})
	if status != http.StatusOK {
		t.Fatalf("analyze: status %d", status)
	}
	keys := harvestAsserts(decode[AnalyzeResponse](t, raw))
	if len(keys) == 0 {
		t.Fatal("vacuous test: no assertion-predicated answers")
	}
	mod := keys[0][:bytes.IndexByte([]byte(keys[0]), '/')]

	wantJSON := excludedRefs(t, smallSource, nil, []string{mod})

	status, raw = do(t, ts.URL, "POST", "/sessions/"+info.ID+"/observe", ObserveRequest{Modules: []string{mod}})
	if status != http.StatusOK {
		t.Fatalf("observe: status %d, body %s", status, raw)
	}
	or := decode[ObserveResponse](t, raw)
	if or.NewModules != 1 {
		t.Fatalf("new_modules = %d, want 1", or.NewModules)
	}
	if or.Flushed == 0 {
		t.Fatal("module withdrawal flushed nothing from a warm cache")
	}

	for pass := 0; pass < 2; pass++ {
		got := analyzeJSON(t, ts.URL, info.ID)
		if !bytes.Equal(got, wantJSON) {
			t.Fatalf("pass %d: answers differ from cold module-quarantined run\ngot  %.600s\nwant %.600s",
				pass, got, wantJSON)
		}
		if bytes.Contains(got, []byte(mod+"/")) {
			t.Fatalf("pass %d: withdrawn module %q still predicates answers", pass, mod)
		}
	}
}

// TestObserveErrors covers the endpoint's failure modes.
func TestObserveErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := createSession(t, ts.URL, CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"})

	if status, _ := do(t, ts.URL, "POST", "/sessions/nope/observe", ObserveRequest{}); status != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", status)
	}
	if status, _ := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/observe", ObserveRequest{}); status != http.StatusBadRequest {
		t.Errorf("empty report: status %d, want 400", status)
	}
	if status, _ := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/observe",
		ObserveRequest{Violations: []WireViolation{{Assertion: ""}}}); status != http.StatusBadRequest {
		t.Errorf("empty assertion: status %d, want 400", status)
	}
	if status, _ := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/observe",
		ObserveRequest{Modules: []string{""}}); status != http.StatusBadRequest {
		t.Errorf("empty module: status %d, want 400", status)
	}
}

// panicModule panics on every consult once armed — the "module starts
// crashing in production" scenario.
type panicModule struct {
	core.BaseModule
	armed *atomic.Bool
}

func (p *panicModule) Name() string          { return "test-panic" }
func (p *panicModule) Kind() core.ModuleKind { return core.Speculation }

func (p *panicModule) Alias(q *core.AliasQuery, h core.Handle) core.AliasResponse {
	if p.armed.Load() {
		panic("test-panic: injected alias failure")
	}
	return core.MayAliasResponse()
}

func (p *panicModule) ModRef(q *core.ModRefQuery, h core.Handle) core.ModRefResponse {
	if p.armed.Load() {
		panic("test-panic: injected modref failure")
	}
	return core.ModRefConservative()
}

// TestModulePanicNeverKillsDaemon arms a crashing module mid-traffic:
// the daemon must keep serving 200s, auto-quarantine the module, count
// the panics, and — once the module is out — serve the exact bytes it
// served before the module went bad.
func TestModulePanicNeverKillsDaemon(t *testing.T) {
	armed := &atomic.Bool{}
	_, ts := newTestServer(t, Config{
		ExtraModules: func() []core.Module { return []core.Module{&panicModule{armed: armed}} },
	})
	info := createSession(t, ts.URL, CreateSessionRequest{Name: "indirect", Source: indirectSource, Plan: "off"})

	// Healthy phase: the extra module answers conservatively, contributing
	// nothing.
	healthy := analyzeJSON(t, ts.URL, info.ID)

	// The module starts crashing. Hit a scheme whose cache is still cold,
	// so the request actually consults modules rather than replaying warm
	// cache entries. It may carry degraded (conservative) answers for the
	// queries that hit the panic — but it must complete with 200, and the
	// panic must quarantine the module.
	armed.Store(true)
	status, raw := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: "confluence"})
	if status != http.StatusOK {
		t.Fatalf("analyze during module failure: status %d, body %s", status, raw)
	}

	// Quarantined now: the module is never consulted again, caches were
	// flushed, and answers return to the healthy bytes.
	got := analyzeJSON(t, ts.URL, info.ID)
	if !bytes.Equal(got, healthy) {
		t.Fatalf("answers after module quarantine differ from healthy answers\ngot  %.600s\nwant %.600s",
			got, healthy)
	}

	_, raw = do(t, ts.URL, "GET", "/metrics", nil)
	m := decode[MetricsResponse](t, raw)
	sm := m.Sessions[info.ID]
	if sm.Stats.ModulePanics == 0 {
		t.Fatal("module panic not counted")
	}
	if sm.Quarantine == nil || len(sm.Quarantine.Modules) != 1 || sm.Quarantine.Modules[0] != "test-panic" {
		t.Fatalf("module not quarantined: %+v", sm.Quarantine)
	}
	if sm.Trace != nil && !sm.Trace.Reconciles {
		t.Fatalf("trace does not reconcile after module panics: %+v vs %+v", sm.Trace, sm.Stats)
	}
	if status, _ := do(t, ts.URL, "GET", "/healthz", nil); status != http.StatusOK {
		t.Fatalf("daemon unhealthy after module failure: status %d", status)
	}
}

// TestHandlerPanicIsolation: a panicking HTTP handler becomes a 500 JSON
// error plus a server_panics increment; http.ErrAbortHandler passes
// through untouched.
func TestHandlerPanicIsolation(t *testing.T) {
	srv := New(Config{})
	h := srv.withRecovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (body %s)", resp.StatusCode, raw)
	}
	e := decode[ErrorResponse](t, raw)
	if e.Error.Code != "internal_panic" || e.Error.Message != "handler exploded" {
		t.Fatalf("error detail = %+v", e.Error)
	}
	if srv.serverPanics.Load() != 1 {
		t.Fatalf("server_panics = %d, want 1", srv.serverPanics.Load())
	}

	// ErrAbortHandler is net/http's sanctioned abort, not a fault.
	aborting := srv.withRecovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	func() {
		defer func() {
			if recover() != http.ErrAbortHandler {
				t.Fatal("ErrAbortHandler swallowed by recovery middleware")
			}
		}()
		aborting.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	}()
	if srv.serverPanics.Load() != 1 {
		t.Fatalf("ErrAbortHandler counted as a server panic")
	}

	// End to end through Handler(): the full stack keeps serving after a
	// handler panic, and the drain accounting stays balanced.
	full := httptest.NewServer(srv.Handler())
	defer full.Close()
	srv.mux.HandleFunc("GET /explode", func(w http.ResponseWriter, r *http.Request) {
		panic("route exploded")
	})
	resp, err = full.Client().Get(full.URL + "/explode")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("full-stack panic: status %d, want 500", resp.StatusCode)
	}
	if resp, err = full.Client().Get(full.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon unhealthy after handler panic: %d", resp.StatusCode)
	}
	srv.mu.Lock()
	inflight := srv.inflight
	srv.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("drain accounting leaked %d in-flight requests across a panic", inflight)
	}
}

// TestNewHTTPServerHardening: the production wrapper sets the slow-client
// timeouts, leaves writes unbounded, and still drains in-flight work on
// Shutdown.
func TestNewHTTPServerHardening(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	hs := NewHTTPServer("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("slow-client timeouts unset: %+v", hs)
	}
	if hs.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v would cut off long analyses", hs.WriteTimeout)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = hs.Serve(ln) }()

	got := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			got <- -1
			return
		}
		resp.Body.Close()
		got <- resp.StatusCode
	}()
	<-started

	// Shutdown must wait for the in-flight request, then complete it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- hs.Shutdown(ctx) }()
	select {
	case <-done:
		t.Fatal("Shutdown returned while a request was still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("shutdown under load: %v", err)
	}
	if status := <-got; status != http.StatusOK {
		t.Fatalf("in-flight request during drain got %d, want 200", status)
	}
}

// TestChaosRecoveryStress exercises quarantine, invalidation, and
// re-resolution concurrently with serving traffic under -race: a chaos
// module lies and stalls, a crashing module is armed mid-traffic, a
// recovery goroutine observes every lie it sees — and once both faulty
// modules are withdrawn, the daemon serves the exact bytes of a fault-free
// library run.
func TestChaosRecoveryStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test in -short")
	}
	chaos := &recovery.Chaos{Seed: 42, WrongEvery: 3, DelayEvery: 7, Delay: 50 * time.Microsecond}
	armed := &atomic.Bool{}
	_, ts := newTestServer(t, Config{
		Workers:  8,
		MaxQueue: 4096,
		ExtraModules: func() []core.Module {
			return []core.Module{chaos, &panicModule{armed: armed}}
		},
	})
	info := createSession(t, ts.URL, CreateSessionRequest{Name: "indirect", Source: indirectSource, Plan: "off"})
	loop := info.HotLoops[0].Name

	// Seed query pairs from one batch.
	status, raw := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: "scaf"})
	if status != http.StatusOK {
		t.Fatalf("seed analyze: status %d", status)
	}
	seed := decode[AnalyzeResponse](t, raw)
	queries := seed.Results[0].Queries
	if len(queries) == 0 {
		t.Fatal("no queries to replay")
	}

	// post is do() without t.Fatal, safe from worker goroutines.
	post := func(path string, body any) (int, []byte, error) {
		b, _ := json.Marshal(body)
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		return resp.StatusCode, out, err
	}

	const workers, iters = 8, 30
	lies := make(chan string, 1024)
	var wg sync.WaitGroup
	var failures atomic.Int64
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if w == 0 && i == iters/2 {
					armed.Store(true) // kill a module mid-traffic
				}
				var status int
				var body []byte
				var err error
				if i%5 == 4 {
					status, body, err = post("/sessions/"+info.ID+"/analyze",
						AnalyzeRequest{Scheme: "scaf", Loops: []string{loop}})
				} else {
					q := queries[(w*31+i)%len(queries)]
					status, body, err = post("/sessions/"+info.ID+"/query",
						QueryRequest{Scheme: "scaf", Loop: loop, I1: q.I1, I2: q.I2, Rel: q.Rel})
				}
				if err != nil || status != http.StatusOK {
					fail("worker %d iter %d: status %d err %v body %.200s", w, i, status, err, body)
					return
				}
				// Surface every chaos lie for the recovery goroutine.
				var probe struct {
					Query   *WireQuery       `json:"query"`
					Results []WireLoopResult `json:"results"`
				}
				_ = json.Unmarshal(body, &probe)
				var qs []WireQuery
				if probe.Query != nil {
					qs = append(qs, *probe.Query)
				}
				for _, r := range probe.Results {
					qs = append(qs, r.Queries...)
				}
				for _, q := range qs {
					for _, o := range q.Options {
						for _, a := range o.Asserts {
							if len(a) > 6 && a[:6] == recovery.NameChaos+"/" {
								select {
								case lies <- a:
								default:
								}
							}
						}
					}
				}
			}
		}()
	}

	// Recovery goroutine: quarantine each chaos lie as it surfaces.
	stopRecover := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		seen := map[string]bool{}
		for {
			select {
			case a := <-lies:
				if seen[a] {
					continue
				}
				seen[a] = true
				status, body, err := post("/sessions/"+info.ID+"/observe",
					ObserveRequest{Violations: []WireViolation{{Assertion: a, Detail: "stress"}}})
				if err != nil || status != http.StatusOK {
					fail("observe %s: status %d err %v body %.200s", a, status, err, body)
				}
			case <-stopRecover:
				return
			}
		}
	}()

	wg.Wait()
	close(stopRecover)
	rwg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d requests failed under chaos", failures.Load())
	}

	// Withdraw both faulty modules, then the daemon must serve the exact
	// bytes of a fault-free library run: recovery leaves no residue.
	status, raw = do(t, ts.URL, "POST", "/sessions/"+info.ID+"/observe",
		ObserveRequest{Modules: []string{recovery.NameChaos, "test-panic"}})
	if status != http.StatusOK {
		t.Fatalf("module withdrawal: status %d, body %s", status, raw)
	}

	sys, err := scaf.Load("indirect", indirectSource, scaf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := sys.Orchestrator(scaf.SchemeSCAF)
	client := sys.Client()
	var clean []WireLoopResult
	for _, l := range sys.HotLoops() {
		clean = append(clean, EncodeLoopResult(client.AnalyzeLoop(o, l)))
	}
	wantJSON, _ := json.Marshal(clean)
	for pass := 0; pass < 2; pass++ {
		got := analyzeJSON(t, ts.URL, info.ID)
		if !bytes.Equal(got, wantJSON) {
			t.Fatalf("pass %d: answers after withdrawing the fault injectors differ from a fault-free run\ngot  %.600s\nwant %.600s",
				pass, got, wantJSON)
		}
	}

	_, raw = do(t, ts.URL, "GET", "/metrics", nil)
	m := decode[MetricsResponse](t, raw)
	sm := m.Sessions[info.ID]
	if sm.Quarantine == nil || len(sm.Quarantine.Modules) == 0 {
		t.Fatalf("quarantine state missing after stress: %+v", sm.Quarantine)
	}
	if sm.Trace != nil && !sm.Trace.Reconciles {
		t.Fatalf("trace does not reconcile after chaos: %+v vs %+v", sm.Trace, sm.Stats)
	}
}
