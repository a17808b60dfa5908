package server

import (
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup
	entered := make(chan struct{})
	release := make(chan struct{})

	type out struct {
		val    any
		shared bool
	}
	first := make(chan out, 1)
	go func() {
		v, shared, _ := g.do("k", func() (any, error) {
			close(entered)
			<-release
			return 42, nil
		})
		first <- out{v, shared}
	}()
	<-entered // the leader is inside fn, so "k" is registered

	second := make(chan out, 1)
	go func() {
		v, shared, _ := g.do("k", func() (any, error) {
			t.Error("coalesced caller ran its own fn")
			return nil, nil
		})
		second <- out{v, shared}
	}()
	time.Sleep(20 * time.Millisecond) // let the follower park on the flight
	// Distinct keys never coalesce, even while "k" is in flight.
	if v, shared, _ := g.do("other", func() (any, error) { return 7, nil }); shared || v != 7 {
		t.Fatalf("distinct key: val=%v shared=%v", v, shared)
	}

	close(release)
	f, s := <-first, <-second
	if f.shared || f.val != 42 {
		t.Fatalf("leader: val=%v shared=%v", f.val, f.shared)
	}
	if !s.shared || s.val != 42 {
		t.Fatalf("follower: val=%v shared=%v, want coalesced 42", s.val, s.shared)
	}

	// The key is released: a later call runs fresh.
	if v, shared, _ := g.do("k", func() (any, error) { return 43, nil }); shared || v != 43 {
		t.Fatalf("post-flight call: val=%v shared=%v", v, shared)
	}
}

func TestFlightGroupConcurrentFollowers(t *testing.T) {
	var g flightGroup
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, _ = g.do("k", func() (any, error) {
			close(entered)
			<-release
			return "v", nil
		})
	}()
	<-entered

	const followers = 32
	var wg sync.WaitGroup
	sharedCount := make(chan bool, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, _ := g.do("k", func() (any, error) { return "own", nil })
			if v != "v" {
				t.Errorf("follower got %v", v)
			}
			sharedCount <- shared
		}()
	}
	time.Sleep(5 * time.Millisecond) // give followers time to park on the flight
	close(release)
	wg.Wait()
	close(sharedCount)
	n := 0
	for s := range sharedCount {
		if s {
			n++
		}
	}
	if n != followers {
		t.Fatalf("%d/%d followers coalesced; all parked before release must", n, followers)
	}
}

// TestAnalyzeCoalescesOntoInFlight proves the handler consults the
// flight group under the documented key: with a flight pre-registered
// for (session, epoch, scheme, loop), a deadline-free batch parks on it and
// returns the in-flight value verbatim, counted as a coalesce hit.
func TestAnalyzeCoalescesOntoInFlight(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	info := createSession(t, ts.URL, CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"})
	loop := info.HotLoops[0].Name

	key := "analyze|" + info.ID + "|e0|SCAF|" + loop
	c := &flightCall{done: make(chan struct{})}
	srv.flights.mu.Lock()
	srv.flights.m = map[string]*flightCall{key: c}
	srv.flights.mu.Unlock()

	type result struct {
		status int
		raw    []byte
	}
	got := make(chan result, 1)
	go func() {
		status, raw := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/analyze",
			AnalyzeRequest{Scheme: "scaf", Loops: []string{loop}})
		got <- result{status, raw}
	}()

	select {
	case r := <-got:
		t.Fatalf("request completed without waiting for the in-flight twin: %d %s", r.status, r.raw)
	case <-time.After(50 * time.Millisecond):
	}

	sentinel := WireLoopResult{Loop: loop, NoDepPct: 123.5}
	c.val = encodeLoopResult(sentinel)
	srv.flights.mu.Lock()
	delete(srv.flights.m, key)
	srv.flights.mu.Unlock()
	close(c.done)

	r := <-got
	if r.status != http.StatusOK {
		t.Fatalf("status %d, body %s", r.status, r.raw)
	}
	ar := decode[AnalyzeResponse](t, r.raw)
	if ar.CoalesceHits != 1 {
		t.Fatalf("coalesce_hits = %d, want 1", ar.CoalesceHits)
	}
	if len(ar.Results) != 1 || ar.Results[0].NoDepPct != sentinel.NoDepPct {
		t.Fatalf("coalesced result not returned verbatim: %s", r.raw)
	}
	if srv.coalesceHits.Load() != 1 {
		t.Fatalf("server coalesce counter = %d, want 1", srv.coalesceHits.Load())
	}
	// Deadline-bounded twins must NOT coalesce: a fresh flight under the
	// same key would now block them if they consulted the group.
	srv.flights.mu.Lock()
	srv.flights.m = map[string]*flightCall{key: {done: make(chan struct{})}}
	srv.flights.mu.Unlock()
	donec := make(chan result, 1)
	go func() {
		status, raw := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/analyze",
			AnalyzeRequest{Scheme: "scaf", Loops: []string{loop}, DeadlineMS: 60000})
		donec <- result{status, raw}
	}()
	select {
	case r := <-donec:
		if r.status != http.StatusOK {
			t.Fatalf("deadline-bounded twin: status %d, body %s", r.status, r.raw)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deadline-bounded request parked on a flight it must bypass")
	}
}
