package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// smallSource2 is a second program so the stress mix crosses sessions:
// a pointer-chasing loop over a linked list built from an arena.
const smallSource2 = `
int arena[256];
int heads[4];

int main() {
  for (int i = 0; i < 252; i = i + 1) { arena[i] = i + 4; }
  for (int h = 0; h < 4; h = h + 1) { heads[h] = h; }
  int sum = 0;
  for (int r = 0; r < 30; r = r + 1) {
    for (int i = 0; i < 200; i = i + 1) {
      int p = arena[i];
      arena[i] = p + heads[p & 3];
      sum = sum + p;
    }
  }
  return sum;
}
`

// TestServerStressRace exercises the daemon the way -race wants it
// exercised: 16 goroutines over two sessions and three schemes, mixing
// deadline-free (coalescible) batches, deadline-bounded batches, single
// queries, and metrics reads. Every deadline-free answer must equal the
// serial reference bytes regardless of interleaving.
func TestServerStressRace(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 8, MaxQueue: 1024})
	infos := []SessionInfo{
		createSession(t, ts.URL, CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}),
		createSession(t, ts.URL, CreateSessionRequest{Name: "small2", Source: smallSource2, Plan: "off"}),
	}
	schemes := []string{"CAF", "Confluence", "SCAF"}

	// Serial reference bytes per (session, scheme), taken before any
	// concurrency starts.
	ref := map[string][]byte{}
	refQuery := map[string]WireQuery{}
	for _, info := range infos {
		for _, scheme := range schemes {
			status, raw := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/analyze",
				AnalyzeRequest{Scheme: scheme})
			if status != http.StatusOK {
				t.Fatalf("reference analyze %s/%s: status %d, body %s", info.ID, scheme, status, raw)
			}
			ar := decode[AnalyzeResponse](t, raw)
			j, err := json.Marshal(ar.Results)
			if err != nil {
				t.Fatal(err)
			}
			ref[info.ID+"/"+scheme] = j
			if len(ar.Results) > 0 && len(ar.Results[0].Queries) > 0 {
				refQuery[info.ID+"/"+scheme] = ar.Results[0].Queries[0]
			}
		}
	}

	const goroutines = 16
	const iters = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				info := infos[(g+i)%len(infos)]
				scheme := schemes[(g*iters+i)%len(schemes)]
				key := info.ID + "/" + scheme
				switch (g + i) % 4 {
				case 0, 1: // deadline-free batch: must match reference bytes
					status, raw := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/analyze",
						AnalyzeRequest{Scheme: scheme})
					if status != http.StatusOK {
						errs <- fmt.Errorf("analyze %s: status %d (%s)", key, status, raw)
						continue
					}
					ar := decode[AnalyzeResponse](t, raw)
					j, _ := json.Marshal(ar.Results)
					if !bytes.Equal(j, ref[key]) {
						errs <- fmt.Errorf("analyze %s: answer drifted under concurrency", key)
					}
				case 2: // deadline-bounded batch: complete and well-formed
					status, raw := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/analyze",
						AnalyzeRequest{Scheme: scheme, DeadlineMS: 1})
					if status != http.StatusOK {
						errs <- fmt.Errorf("deadline analyze %s: status %d (%s)", key, status, raw)
						continue
					}
					ar := decode[AnalyzeResponse](t, raw)
					if len(ar.Results) != len(info.HotLoops) {
						errs <- fmt.Errorf("deadline analyze %s: %d results, want %d",
							key, len(ar.Results), len(info.HotLoops))
					}
				case 3: // single query + metrics read
					q, ok := refQuery[key]
					if ok {
						status, raw := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/query", QueryRequest{
							Scheme: scheme, Loop: info.HotLoops[0].Name,
							I1: q.I1, I2: q.I2, Rel: q.Rel,
						})
						if status != http.StatusOK {
							errs <- fmt.Errorf("query %s: status %d (%s)", key, status, raw)
							continue
						}
						qr := decode[QueryResponse](t, raw)
						gj, _ := json.Marshal(qr.Query)
						wj, _ := json.Marshal(q)
						if !bytes.Equal(gj, wj) {
							errs <- fmt.Errorf("query %s: answer drifted under concurrency", key)
						}
					}
					if status, _ := do(t, ts.URL, "GET", "/metrics", nil); status != http.StatusOK {
						errs <- fmt.Errorf("metrics: status %d", status)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Quiescent invariants: nothing queued, nothing in flight, and every
	// session's trace still reconciles exactly with its counters despite
	// all the pool churn.
	if d := srv.queued.Load(); d != 0 {
		t.Errorf("queue depth %d after quiesce", d)
	}
	srv.mu.Lock()
	inflight := srv.inflight
	srv.mu.Unlock()
	if inflight != 0 {
		t.Errorf("%d requests still tracked in flight", inflight)
	}
	status, raw := do(t, ts.URL, "GET", "/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("final metrics: status %d", status)
	}
	m := decode[MetricsResponse](t, raw)
	for id, sm := range m.Sessions {
		if sm.Trace == nil || !sm.Trace.Reconciles {
			t.Errorf("session %s: trace does not reconcile after stress", id)
		}
		if sm.Latency == nil || sm.Latency.TotalWrk != sm.Stats.ModuleEvals {
			t.Errorf("session %s: work samples do not partition module evals", id)
		}
	}
	if m.Server.Accepted == 0 || m.Server.LoopsServed == 0 || m.Server.QueriesServed == 0 {
		t.Errorf("server counters missing traffic: %+v", m.Server)
	}
	t.Logf("stress: accepted=%d coalesce_hits=%d deadline_misses=%d loops=%d queries=%d",
		m.Server.Accepted, m.Server.CoalesceHits, m.Server.DeadlineMisses,
		m.Server.LoopsServed, m.Server.QueriesServed)
}

// TestShutdownDrainsInFlight runs Shutdown while real requests are
// executing: every accepted request must complete with 200, late
// arrivals get 503, and Shutdown returns only after the flight is empty.
func TestShutdownDrainsInFlight(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 4})
	info := createSession(t, ts.URL, CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"})

	const inflight = 6
	statuses := make(chan int, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _ := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/analyze",
				AnalyzeRequest{Scheme: "SCAF"})
			statuses <- status
		}()
	}
	time.Sleep(5 * time.Millisecond) // let some requests enter the handler

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	close(statuses)
	for status := range statuses {
		if status != http.StatusOK && status != http.StatusServiceUnavailable {
			t.Errorf("request during drain finished with %d", status)
		}
	}
	srv.mu.Lock()
	left := srv.inflight
	srv.mu.Unlock()
	if left != 0 {
		t.Fatalf("Shutdown returned with %d requests in flight", left)
	}
}
