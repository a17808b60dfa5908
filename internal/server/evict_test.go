package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"scaf/internal/fleet"
	"scaf/internal/mcgen"
	"scaf/internal/persist"
)

// TestFleetChurnMemoryLevelsOff: session lifecycles on ever-new programs
// fill each shard to its budget and no further, so the heap a fleet
// holds levels off instead of growing with its history. Every batch of
// create / analyze under each scheme / query / delete cycles publishes
// more than a shard's budget; after each, every shard must sit at or
// under the budget, and the post-GC heap after the last batch must stay
// within heapMargin of the first's. An unbounded shard keeps every
// cycle's answers, about 60 KiB of heap per cycle here, and fails the
// heap check.
func TestFleetChurnMemoryLevelsOff(t *testing.T) {
	const (
		budget     = 64 << 10
		batches    = 6
		cycles     = 8 // per batch
		heapMargin = 1 << 20
	)
	fl, err := StartLoopbackFleet(2, false, "", Config{Fleet: &FleetConfig{CacheBytes: budget}}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := fl.Close(); err != nil {
			t.Errorf("closing the fleet: %v", err)
		}
	})
	// The oracle's hot-loop thresholds, as fleet-churn creates sessions.
	hot := &WireHotLoopParams{MinWeightFrac: 0.001, MinAvgIters: 1.5}
	schemes := []string{"caf", "confluence", "scaf"}

	var heaps []uint64
	seed := int64(0)
	for b := 1; b <= batches; b++ {
		for i := 0; i < cycles; i++ {
			seed++
			info := createSession(t, fl.URL, CreateSessionRequest{
				Name: fmt.Sprintf("gen%d", seed), Source: mcgen.New(seed).Program(), HotLoops: hot})
			for _, scheme := range schemes {
				st, raw := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: scheme})
				if st != http.StatusOK {
					t.Fatalf("seed %d: analyze %s: %d %.300s", seed, scheme, st, raw)
				}
				for _, lr := range decode[AnalyzeResponse](t, raw).Results {
					for _, q := range lr.Queries[:min(2, len(lr.Queries))] {
						qreq := QueryRequest{Scheme: scheme, Loop: lr.Loop, I1: q.I1, I2: q.I2, Rel: q.Rel}
						if st, raw := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/query", qreq); st != http.StatusOK {
							t.Fatalf("seed %d: query: %d %.300s", seed, st, raw)
						}
					}
				}
			}
			if st, raw := do(t, fl.URL, "DELETE", "/sessions/"+info.ID, nil); st != http.StatusNoContent {
				t.Fatalf("seed %d: delete: %d %.300s", seed, st, raw)
			}
		}
		fl.Flush()
		var entries int
		var evicted int64
		for _, id := range fl.IDs() {
			st := fl.Backend(id).Fleet().Stats().Local
			if st.Bytes > budget {
				t.Fatalf("batch %d: shard %s holds %d bytes over its %d budget", b, id, st.Bytes, budget)
			}
			entries += st.Entries
			evicted += st.Evicted
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heaps = append(heaps, ms.HeapAlloc)
		t.Logf("batch %d: %d resident entries, %d evicted, post-GC heap %.2f MiB", b, entries, evicted, float64(ms.HeapAlloc)/(1<<20))
		if b == batches && evicted == 0 {
			t.Fatalf("vacuous: %d cycles evicted nothing from %d-byte shards", batches*cycles, budget)
		}
	}
	if first, last := heaps[0], heaps[len(heaps)-1]; last > first+heapMargin {
		t.Fatalf("post-GC heap grew from %.2f to %.2f MiB over %d batches, more than the %.2f MiB margin",
			float64(first)/(1<<20), float64(last)/(1<<20), batches-1, float64(heapMargin)/(1<<20))
	}
}

// overBudgetSnapshot returns a shard image of n entries of about 350
// accounted bytes each, with entry 3 predicated on the revoked
// assertion "rev".
func overBudgetSnapshot(n int) persist.Snapshot {
	snap := persist.Snapshot{Revoked: []string{"rev"}}
	for i := 0; i < n; i++ {
		e := fleet.Entry{Key: fmt.Sprintf("dig|scaf|fp|k%03d", i), Value: []byte(fmt.Sprintf(`{"n":%d,"pad":"%0200d"}`, i, 0))}
		e.Asserts = []string{fmt.Sprintf("a%d", i%5)}
		if i == 3 {
			e.Asserts = append(e.Asserts, "rev")
		}
		snap.Entries = append(snap.Entries, e)
	}
	return snap
}

// checkRestoredWithinBudget fails t unless shard holds at most budget
// bytes, has evicted to get there, and misses the revoked entry.
func checkRestoredWithinBudget(t *testing.T, what string, shard *fleet.Cache, budget int64) {
	t.Helper()
	st := shard.Stats()
	if st.Bytes > budget || st.Evicted == 0 || st.Entries == 0 {
		t.Fatalf("%s: %d entries, %d bytes of a %d budget, %d evicted; want a full shard within the budget",
			what, st.Entries, st.Bytes, budget, st.Evicted)
	}
	if _, ok := shard.Get("dig|scaf|fp|k003", nil); ok {
		t.Fatalf("%s: the entry predicated on a revoked assertion was restored", what)
	}
	if !shard.AnyRevoked([]string{"rev"}) {
		t.Fatalf("%s: the revocation was not restored", what)
	}
}

// TestServerWarmRestartOverBudget: a snapshot larger than the shard's
// budget boots to at or under it, and two boots from one file keep the
// same resident set.
func TestServerWarmRestartOverBudget(t *testing.T) {
	const budget = 8 << 10
	dir := t.TempDir()
	st, err := persist.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(overBudgetSnapshot(200)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	boot := func() []fleet.Entry {
		srv := New(Config{Fleet: &FleetConfig{Self: "p0", CacheDir: dir, CacheBytes: budget}})
		// Drained only once both have booted, since a drain rewrites the
		// snapshot.
		t.Cleanup(func() { srv.Shutdown(context.Background()) })
		checkRestoredWithinBudget(t, "snapshot boot", srv.Fleet().Local(), budget)
		return srv.Fleet().Local().SnapshotEntries()
	}
	if first, second := boot(), boot(); !reflect.DeepEqual(first, second) {
		t.Fatalf("two boots from one snapshot kept %d and %d different entries", len(first), len(second))
	}
}

// TestElasticSegmentOverBudget: a streamed segment larger than the
// receiving shard's budget installs to at or under it.
func TestElasticSegmentOverBudget(t *testing.T) {
	const budget = 8 << 10
	srv := New(Config{Fleet: &FleetConfig{Self: "j0", CacheBytes: budget}})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/fleet/restore", bytes.NewReader(persist.Encode(overBudgetSnapshot(200)))))
	if rec.Code != http.StatusOK {
		t.Fatalf("segment restore: %d %s", rec.Code, rec.Body.Bytes())
	}
	checkRestoredWithinBudget(t, "segment restore", srv.Fleet().Local(), budget)
}
