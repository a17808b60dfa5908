package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
)

// TestFleetLookaside exercises the fleet data plane inside one instance
// (a fleet of one): a second identical session must serve
// /analyze whole from the loop lookaside, byte-identical to the first
// session's fresh resolution, and answer /query byte-identically to the
// first session's analyze entry.
func TestFleetLookaside(t *testing.T) {
	srv, ts := newTestServer(t, Config{Fleet: &FleetConfig{Self: "solo"}})

	req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
	info1 := createSession(t, ts.URL, req)
	info2 := createSession(t, ts.URL, req)

	gold := analyzeJSON(t, ts.URL, info1.ID)
	if n := srv.fleetLoopHits.Load(); n != 0 {
		t.Fatalf("cold analyze hit the lookaside %d times", n)
	}

	// Session 2 shares the program digest, so its analyze must be served
	// whole from the tier without resolving anything.
	got := analyzeJSON(t, ts.URL, info2.ID)
	if !bytes.Equal(got, gold) {
		t.Fatalf("lookaside-served analyze diverged:\ngot  %.400s\nwant %.400s", got, gold)
	}
	if n := srv.fleetLoopHits.Load(); n == 0 {
		t.Fatal("identical session analyze did not hit the loop lookaside")
	}

	var results []WireLoopResult
	if err := json.Unmarshal(gold, &results); err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 || len(results[0].Queries) == 0 {
		t.Fatalf("no queries to re-ask: %.200s", gold)
	}
	ref := results[0].Queries[0]

	// Session 2's core caches are cold (its analyze never resolved), so it
	// resolves the query itself.
	status, raw := do(t, ts.URL, "POST", "/sessions/"+info2.ID+"/query", QueryRequest{
		Scheme: "scaf", Loop: results[0].Loop, I1: ref.I1, I2: ref.I2, Rel: ref.Rel,
	})
	if status != http.StatusOK {
		t.Fatalf("query: status %d, body %s", status, raw)
	}
	qr := decode[QueryResponse](t, raw)
	refJSON, _ := json.Marshal(ref)
	gotJSON, _ := json.Marshal(qr.Query)
	if !bytes.Equal(gotJSON, refJSON) {
		t.Fatalf("session 2's query diverged from its analyze twin:\ngot  %s\nwant %s", gotJSON, refJSON)
	}

	_, raw = do(t, ts.URL, "GET", "/metrics", nil)
	m := decode[MetricsResponse](t, raw)
	if m.Server.FleetLoopHits == 0 {
		t.Fatalf("fleet_loop_hits not surfaced: %+v", m.Server)
	}
}

// TestFleetCrossInstanceComputesLocally: a backend reads its own shard
// only. Instance B, asked to analyze a session instance A has already
// analyzed, computes every loop itself, byte-identical to A's
// resolution; its second analyze is served whole from its own shard, and
// its /query answers byte-identically to A's analyze entry.
func TestFleetCrossInstanceComputesLocally(t *testing.T) {
	fl := startFleet(t, 2, false, RouterConfig{})
	sA, sB := fl.Backend("b0"), fl.Backend("b1")
	tsA, tsB := fl.BackendURL("b0"), fl.BackendURL("b1")

	req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
	infoA := createSession(t, tsA, req)
	infoB := createSession(t, tsB, req)

	gold := analyzeJSON(t, tsA, infoA.ID)
	got := analyzeJSON(t, tsB, infoB.ID)
	if !bytes.Equal(got, gold) {
		t.Fatalf("B's own resolution diverged from A's:\ngot  %.400s\nwant %.400s", got, gold)
	}
	if a, b := sA.fleetLoopHits.Load(), sB.fleetLoopHits.Load(); a != 0 || b != 0 {
		t.Fatalf("cold analyzes counted lookaside hits: A %d, B %d", a, b)
	}
	if got := analyzeJSON(t, tsB, infoB.ID); !bytes.Equal(got, gold) {
		t.Fatalf("B's warm analyze diverged:\ngot  %.400s\nwant %.400s", got, gold)
	}
	if sB.fleetLoopHits.Load() == 0 {
		t.Fatal("B's second analyze did not hit its own shard")
	}

	var results []WireLoopResult
	if err := json.Unmarshal(gold, &results); err != nil {
		t.Fatal(err)
	}
	ref := results[0].Queries[0]
	status, raw := do(t, tsB, "POST", "/sessions/"+infoB.ID+"/query", QueryRequest{
		Scheme: "scaf", Loop: results[0].Loop, I1: ref.I1, I2: ref.I2, Rel: ref.Rel,
	})
	if status != http.StatusOK {
		t.Fatalf("query on B: status %d, body %s", status, raw)
	}
	qr := decode[QueryResponse](t, raw)
	refJSON, _ := json.Marshal(ref)
	gotJSON, _ := json.Marshal(qr.Query)
	if !bytes.Equal(gotJSON, refJSON) {
		t.Fatalf("B's query diverged from A's batch twin:\ngot  %s\nwant %s", gotJSON, refJSON)
	}

	// The tier's counters are surfaced through /metrics.
	_, raw = do(t, tsB, "GET", "/metrics", nil)
	m := decode[MetricsResponse](t, raw)
	if m.Fleet == nil {
		t.Fatalf("fleet stats missing from B's metrics: %.300s", raw)
	}
	if m.Fleet.LocalHits == 0 || m.Fleet.Misses == 0 {
		t.Fatalf("B's lookups went uncounted: %+v", m.Fleet)
	}
}

// TestFleetInvalidationGuaranteedMiss is the fleet-wide recovery
// guarantee, end to end over real HTTP: assertions violated in a
// session (POST /observe through the router, which sends it to one
// backend) cause a guaranteed miss for every predicated entry on every
// backend. Before the observe's reply goes out, the router has carried
// the event to the session's copy on the other backend, so both copies
// answer byte-identically to a cold analysis that had those assertions
// excluded from the start, and both shards have revoked them: a fresh
// session of the same program is served no entry resting on one.
func TestFleetInvalidationGuaranteedMiss(t *testing.T) {
	fl := startFleet(t, 2, false, RouterConfig{})
	sA, sB := fl.Backend("b0"), fl.Backend("b1")
	tsA, tsB := fl.BackendURL("b0"), fl.BackendURL("b1")

	req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
	info := createSession(t, fl.URL, req)

	// Warm both shards: A and B each resolve every loop and publish.
	gold := analyzeJSON(t, tsA, info.ID)
	if got := analyzeJSON(t, tsB, info.ID); !bytes.Equal(got, gold) {
		t.Fatalf("warmup: B diverged from A")
	}

	var results []WireLoopResult
	if err := json.Unmarshal(gold, &results); err != nil {
		t.Fatal(err)
	}
	keys := harvestAsserts(AnalyzeResponse{Results: results})
	if len(keys) == 0 {
		t.Fatal("vacuous test: no served answer was predicated on an assertion")
	}
	wantJSON := excludedRefs(t, smallSource, keys, nil)

	var vs []WireViolation
	for _, k := range keys {
		vs = append(vs, WireViolation{Assertion: k, Detail: "observed"})
	}
	status, raw := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/observe", ObserveRequest{Violations: vs})
	if status != http.StatusOK {
		t.Fatalf("observe through the router: status %d, body %s", status, raw)
	}

	// Both copies now serve the cold excluded-assertion bytes: the old
	// predicated entries are guaranteed misses on both backends.
	for _, base := range []string{tsA, tsB} {
		for pass := 0; pass < 2; pass++ {
			if got := analyzeJSON(t, base, info.ID); !bytes.Equal(got, wantJSON) {
				t.Fatalf("%s pass %d: still serves pre-violation bytes\ngot  %.400s\nwant %.400s",
					base, pass, got, wantJSON)
			}
		}
	}

	// Both copies list the violated assertions, and both shards revoked
	// them and removed the entries resting on them (each loop entry is
	// indexed under every harvested key).
	for _, srv := range []*Server{sA, sB} {
		_, raw := do(t, fl.BackendURL(srv.cfg.Fleet.Self), "GET", "/metrics", nil)
		m := decode[MetricsResponse](t, raw)
		if q := m.Sessions[info.ID].Quarantine; q == nil || !reflect.DeepEqual(q.Asserts, keys) {
			t.Fatalf("%s quarantines %+v, want %v", srv.cfg.Fleet.Self, q, keys)
		}
		st := srv.fleet.Local().Stats()
		if st.Revoked != len(keys) || st.Invalidated == 0 {
			t.Fatalf("%s's shard revoked %d keys and invalidated %d entries, want %d and more than 0",
				srv.cfg.Fleet.Self, st.Revoked, st.Invalidated, len(keys))
		}
	}

	// A fresh session starts with an empty quarantine, so its fleet keys
	// are exactly the pre-violation ones: if a revoked entry survived on
	// either shard, or one were stored again, the lookaside would serve
	// it. Instead each backend re-resolves from scratch (no new lookaside
	// hit), reproducing the clean-slate bytes by fresh computation.
	hitsA, hitsB := sA.fleetLoopHits.Load(), sB.fleetLoopHits.Load()
	fresh := createSession(t, fl.URL, req)
	for _, base := range []string{tsA, tsB, tsA} {
		if got := analyzeJSON(t, base, fresh.ID); !bytes.Equal(got, gold) {
			t.Fatalf("fresh session at %s did not reproduce the clean-slate analysis", base)
		}
	}
	if a, b := sA.fleetLoopHits.Load(), sB.fleetLoopHits.Load(); a != hitsA || b != hitsB {
		t.Fatalf("fresh session was served a revoked fleet entry (%d -> %d and %d -> %d lookaside hits)",
			hitsA, a, hitsB, b)
	}
}

// TestFleetCorruptLoopValueMisses: a loop value in the shard that is not
// exactly one JSON object is a miss, never served. With every stored
// loop result corrupted (truncated, doubled, newline-padded), analyzes
// must recompute and answer byte-identically to a cold single instance,
// and the loop lookaside must not count a hit. The failed check removes
// each bad entry, so the recomputed result's publish lands and a second
// round is served whole from the tier, with the gold bytes; before, the
// bad entry kept the key and every later analyze recomputed.
func TestFleetCorruptLoopValueMisses(t *testing.T) {
	srv, ts := newTestServer(t, Config{Fleet: &FleetConfig{Self: "solo"}})
	_, cold := newTestServer(t, Config{})

	req := CreateSessionRequest{Bench: "129.compress"}
	info := createSession(t, ts.URL, req)
	createSession(t, cold.URL, req)
	path := "/sessions/" + info.ID + "/analyze"
	schemes := []string{"caf", "confluence", "scaf"}
	gold := map[string][]byte{}
	for _, sc := range schemes {
		_, gold[sc] = do(t, cold.URL, "POST", path, AnalyzeRequest{Scheme: sc})
		if _, warm := do(t, ts.URL, "POST", path, AnalyzeRequest{Scheme: sc}); !bytes.Equal(warm, gold[sc]) {
			t.Fatalf("%s: fleet analyze diverged from cold:\ngot  %.300s\nwant %.300s", sc, warm, gold[sc])
		}
	}

	local := srv.fleet.Local()
	entries := local.SnapshotEntries()
	local.Flush()
	corrupted := 0
	for _, e := range entries {
		if IsLoopKey(e.Key) {
			v := e.Value
			switch corrupted % 3 {
			case 0:
				e.Value = v[:len(v)/2]
			case 1:
				e.Value = append(append([]byte(nil), v...), v...)
			case 2:
				e.Value = append(append([]byte(nil), v...), '\n')
			}
			corrupted++
		}
		local.Put(e)
	}
	if corrupted < 3 {
		t.Fatalf("vacuous: only %d loop entries in the shard", corrupted)
	}

	hits0 := srv.fleetLoopHits.Load()
	for _, sc := range schemes {
		status, got := do(t, ts.URL, "POST", path, AnalyzeRequest{Scheme: sc})
		if status != http.StatusOK || !bytes.Equal(got, gold[sc]) {
			t.Fatalf("%s: analyze over corrupt shard: %d\ngot  %.300s\nwant %.300s", sc, status, got, gold[sc])
		}
	}
	if n := srv.fleetLoopHits.Load(); n != hits0 {
		t.Fatalf("a corrupt loop value was served: fleet_loop_hits %d -> %d", hits0, n)
	}

	for _, sc := range schemes {
		status, got := do(t, ts.URL, "POST", path, AnalyzeRequest{Scheme: sc})
		if status != http.StatusOK || !bytes.Equal(got, gold[sc]) {
			t.Fatalf("%s: analyze after republish: %d\ngot  %.300s\nwant %.300s", sc, status, got, gold[sc])
		}
	}
	if n, want := srv.fleetLoopHits.Load()-hits0, int64(len(schemes)*len(info.HotLoops)); n != want {
		t.Fatalf("after republish %d of %d loops were served from the tier", n, want)
	}
}
