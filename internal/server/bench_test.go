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
	defer srv.fleet.Close()
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

// BenchmarkRouterAnalyzeWarm times one SCAF /analyze of 175.vpr sent
// through Router.Handler() in front of a two-backend loopback fleet,
// with every loop a tier hit: the router's fan-out of one request per
// loop, each backend's splice of its stored bytes, and the router's
// check and splice of each sub-reply. Allocations on every goroutine
// count, net/http's included, so `make bench-mem` pins its allocs/op
// with headroom.
func BenchmarkRouterAnalyzeWarm(b *testing.B) {
	f, err := StartLoopbackFleet(2, false, "", Config{}, RouterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	h := f.Router.Handler()
	serve := func(path string, body []byte, want int) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != want {
			b.Fatalf("POST %s: status %d, body %.300s", path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	var info SessionInfo
	if err := json.Unmarshal(serve("/sessions", []byte(`{"bench":"175.vpr"}`), http.StatusCreated), &info); err != nil {
		b.Fatal(err)
	}
	path := "/sessions/" + info.ID + "/analyze"
	body := []byte(`{"scheme":"scaf"}`)
	serve(path, body, http.StatusOK)
	f.Flush()
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
