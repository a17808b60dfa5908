package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// TestFleetLookaside exercises the fleet data plane inside one instance
// (no peers, purely local shard): a second identical session must serve
// /analyze whole from the loop lookaside, byte-identical to the first
// session's fresh resolution, and answer /query byte-identically to the
// first session's analyze entry.
func TestFleetLookaside(t *testing.T) {
	srv, ts := newTestServer(t, Config{Fleet: &FleetConfig{Self: "solo"}})
	t.Cleanup(func() { srv.fleet.Close() })

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
// analyzed, computes every loop itself, byte-identical to A's resolution,
// with no peer RPC; its second analyze is served whole from its own
// shard, and its /query answers byte-identically to A's analyze entry.
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
	for _, s := range []*Server{sA, sB} {
		if st := s.fleet.Stats(); st.RemoteErrors != 0 || st.Dials != 0 {
			t.Fatalf("%s reached a peer: %+v", st.Self, st)
		}
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
// guarantee, end to end over real HTTP: an assertion violated on instance
// A (POST /observe) causes a guaranteed miss for every predicated entry on
// instance B — B's next answers are byte-identical to a cold analysis that
// had those assertions excluded from the start, even though B never saw a
// local observe report.
func TestFleetInvalidationGuaranteedMiss(t *testing.T) {
	fl := startFleet(t, 2, false, RouterConfig{})
	sA, sB := fl.Backend("b0"), fl.Backend("b1")
	tsA, tsB := fl.BackendURL("b0"), fl.BackendURL("b1")

	req := CreateSessionRequest{Name: "small", Source: smallSource, Plan: "off"}
	infoA := createSession(t, tsA, req)
	infoB := createSession(t, tsB, req)

	// Warm both shards: A and B each resolve and publish.
	gold := analyzeJSON(t, tsA, infoA.ID)
	if got := analyzeJSON(t, tsB, infoB.ID); !bytes.Equal(got, gold) {
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

	// Violate every predicating assertion on A. The broadcast is
	// synchronous: when /observe returns, B has already revoked.
	var vs []WireViolation
	for _, k := range keys {
		vs = append(vs, WireViolation{Assertion: k, Detail: "observed on a"})
	}
	status, raw := do(t, tsA, "POST", "/sessions/"+infoA.ID+"/observe", ObserveRequest{Violations: vs})
	if status != http.StatusOK {
		t.Fatalf("observe on A: status %d, body %s", status, raw)
	}

	// B's answers must now be the cold excluded-assertion bytes — the old
	// predicated entries are guaranteed misses fleet-wide — and A's must
	// agree with them.
	for pass := 0; pass < 2; pass++ {
		if got := analyzeJSON(t, tsB, infoB.ID); !bytes.Equal(got, wantJSON) {
			t.Fatalf("pass %d: B still serves pre-violation bytes\ngot  %.400s\nwant %.400s",
				pass, got, wantJSON)
		}
	}
	if got := analyzeJSON(t, tsA, infoA.ID); !bytes.Equal(got, wantJSON) {
		t.Fatalf("A diverged from the excluded-assertion reference")
	}

	// The violated assertions were replicated into B's quarantine, and at
	// least one predicated shard entry was physically removed somewhere in
	// the fleet (the loop entry is indexed under every harvested key).
	_, raw = do(t, tsB, "GET", "/metrics", nil)
	m := decode[MetricsResponse](t, raw)
	sm, ok := m.Sessions[infoB.ID]
	if !ok || sm.Quarantine == nil {
		t.Fatalf("B's session has no quarantine after replication: %.300s", raw)
	}
	if len(sm.Quarantine.Asserts) != len(keys) {
		t.Fatalf("B quarantined %v, want %v", sm.Quarantine.Asserts, keys)
	}
	invalidated := sA.fleet.Local().Stats().Invalidated + sB.fleet.Local().Stats().Invalidated
	if invalidated == 0 {
		t.Fatal("no shard entry was invalidated by the broadcast")
	}

	// The revoked entries are physically gone fleet-wide. A fresh session
	// on B starts with an empty quarantine, so its fleet keys are exactly
	// the pre-violation ones — if any revoked copy survived on any shard,
	// the lookaside would serve it. Instead the session must re-resolve
	// from scratch (no new lookaside hit), reproducing the clean-slate
	// bytes by fresh computation.
	hitsBefore := sB.fleetLoopHits.Load()
	infoB2 := createSession(t, tsB, req)
	if got := analyzeJSON(t, tsB, infoB2.ID); !bytes.Equal(got, gold) {
		t.Fatalf("fresh session on B did not reproduce the clean-slate analysis")
	}
	if n := sB.fleetLoopHits.Load(); n != hitsBefore {
		t.Fatalf("fresh session was served a revoked fleet entry (%d -> %d lookaside hits)",
			hitsBefore, n)
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
	t.Cleanup(func() { srv.fleet.Close() })
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
