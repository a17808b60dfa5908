package server

import (
	"bytes"
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
