package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkAnalyzeWarmHit times one SCAF /analyze of 129.compress that
// the fleet tier serves whole: a fleet-of-one server warmed by one
// request, then every iteration, sent through Handler(), must be a loop
// lookaside hit for each hot loop. Its allocs/op are exact, so
// `make bench-mem` pins them.
func BenchmarkAnalyzeWarmHit(b *testing.B) {
	srv := New(Config{Fleet: &FleetConfig{Self: "solo"}})
	info, err := srv.Preload("129.compress")
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	path := "/sessions/" + info.ID + "/analyze"
	body := []byte(`{"scheme":"scaf"}`)
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("analyze: status %d, body %.300s", rec.Code, rec.Body.Bytes())
		}
	}
	serve()
	loops := int64(len(info.HotLoops))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := srv.fleetLoopHits.Load()
		serve()
		if hits := srv.fleetLoopHits.Load() - before; hits != loops {
			b.Fatalf("iteration %d: %d of %d loops served from the tier", i, hits, loops)
		}
	}
}

// routerBench boots a two-backend loopback fleet for one benchmark run
// and, through Router.Handler(), creates a 175.vpr session and runs one
// SCAF /analyze of it, whose reply it returns. serve sends one POST
// through the same handler and fails b unless the reply has status want.
func routerBench(b *testing.B) (f *LoopbackFleet, info SessionInfo, analyzed []byte, serve func(path string, body []byte, want int) []byte) {
	f, err := StartLoopbackFleet(2, false, "", Config{}, RouterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { f.Close() })
	h := f.Router.Handler()
	serve = func(path string, body []byte, want int) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != want {
			b.Fatalf("POST %s: status %d, body %.300s", path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	if err := json.Unmarshal(serve("/sessions", []byte(`{"bench":"175.vpr"}`), http.StatusCreated), &info); err != nil {
		b.Fatal(err)
	}
	analyzed = serve("/sessions/"+info.ID+"/analyze", []byte(`{"scheme":"scaf"}`), http.StatusOK)
	return f, info, analyzed, serve
}

// BenchmarkRouterAnalyzeWarm times one SCAF /analyze of 175.vpr sent
// through Router.Handler() in front of a two-backend loopback fleet,
// with every loop a tier hit: the router's fan-out of one request per
// loop, each backend's splice of its stored bytes, and the router's
// check and splice of each sub-reply. Allocations on every goroutine
// count, net/http's included, so `make bench-mem` pins its allocs/op
// with headroom.
func BenchmarkRouterAnalyzeWarm(b *testing.B) {
	f, info, _, serve := routerBench(b)
	path := "/sessions/" + info.ID + "/analyze"
	body := []byte(`{"scheme":"scaf"}`)
	hits := func() int64 {
		var n int64
		for _, id := range f.IDs() {
			n += f.Backend(id).fleetLoopHits.Load()
		}
		return n
	}
	loops := int64(len(info.HotLoops))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := hits()
		serve(path, body, http.StatusOK)
		if n := hits() - before; n != loops {
			b.Fatalf("iteration %d: %d of %d loops served from the tier", i, n, loops)
		}
	}
}

// BenchmarkRouterQueryWarm times one warm SCAF /query of 175.vpr sent
// through Router.Handler() in front of a two-backend loopback fleet,
// after one /analyze: the router's decode of the routing key and its hop
// to the backend that resolved the query's loop, whose shared cache
// answers it. Every iteration must evaluate no module. Allocations on
// every goroutine count, net/http's included, so `make bench-mem` pins
// its allocs/op with headroom.
func BenchmarkRouterQueryWarm(b *testing.B) {
	f, info, analyzed, serve := routerBench(b)
	var ar AnalyzeResponse
	if err := json.Unmarshal(analyzed, &ar); err != nil {
		b.Fatal(err)
	}
	if len(ar.Results) == 0 || len(ar.Results[0].Queries) == 0 {
		b.Fatal("the analyze reply held no queries")
	}
	q := ar.Results[0].Queries[0]
	body, _ := json.Marshal(QueryRequest{Scheme: "scaf", Loop: ar.Results[0].Loop, I1: q.I1, I2: q.I2, Rel: q.Rel})
	path := "/sessions/" + info.ID + "/query"
	var sessions []*session
	for _, id := range f.IDs() {
		sessions = append(sessions, f.Backend(id).registered()...)
	}
	evals := func() (n int64) {
		for _, sess := range sessions {
			sess.mu.Lock()
			n += sess.stats.ModuleEvals
			sess.mu.Unlock()
		}
		return n
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := evals()
		serve(path, body, http.StatusOK)
		if n := evals() - before; n != 0 {
			b.Fatalf("iteration %d: the query evaluated %d modules", i, n)
		}
	}
}
