package server

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"scaf"
	"scaf/internal/fleet"
	"scaf/internal/persist"
)

// warmElasticFleet creates several sessions through the router and
// analyzes each one, so each member publishes into its shard the
// loop-result entries of the loops the router placed on it; returns the
// session infos and each one's analyze gold. Each session gets a
// distinct source (the fleet digest covers source bytes, not the session
// name), so no two sessions share a loop entry.
func warmElasticFleet(t *testing.T, fl *LoopbackFleet, n int) ([]SessionInfo, [][]byte) {
	t.Helper()
	infos := make([]SessionInfo, n)
	golds := make([][]byte, n)
	for i := range infos {
		src := strings.Replace(smallSource, "r < 40", fmt.Sprintf("r < %d", 40+i), 1)
		infos[i] = createSession(t, fl.URL, CreateSessionRequest{
			Name: fmt.Sprintf("elastic-%d", i), Source: src, Plan: "off"})
		st, raw := do(t, fl.URL, "POST", "/sessions/"+infos[i].ID+"/analyze", AnalyzeRequest{Scheme: "scaf"})
		if st != http.StatusOK {
			t.Fatalf("warm analyze %d: %d %.300s", i, st, raw)
		}
		golds[i] = raw
	}
	return infos, golds
}

// placedLoopKeys returns the fleet keys of the loop entries, under
// schemes, of the sessions srv holds whose loops place puts on owner.
func placedLoopKeys(srv *Server, place func(sid, scheme, loop string) string, owner string, schemes ...scaf.Scheme) map[string]bool {
	keys := map[string]bool{}
	for _, sess := range srv.registered() {
		for _, scheme := range schemes {
			for _, l := range sess.hot {
				if place(sess.id, scheme.String(), l.Name()) == owner {
					keys[sess.fleetLoopKey(scheme, l)] = true
				}
			}
		}
	}
	return keys
}

// TestFleetSegmentExportByPlacement: a backend's segment export holds
// the entries of the loops, under every scheme, whose analyzeKey the
// requested ring gives to the new owner, and nothing else, with the
// shard's full revoked set; reading the shard for it counts no hit.
func TestFleetSegmentExportByPlacement(t *testing.T) {
	srv, ts := newTestServer(t, Config{Fleet: &FleetConfig{Self: "b0"}})
	for i := 0; i < 4; i++ {
		src := strings.Replace(smallSource, "r < 40", fmt.Sprintf("r < %d", 40+i), 1)
		info := createSession(t, ts.URL, CreateSessionRequest{Name: fmt.Sprintf("seg-%d", i), Source: src, Plan: "off"})
		for _, scheme := range []string{"caf", "confluence", "scaf"} {
			if st, raw := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: scheme}); st != http.StatusOK {
				t.Fatalf("analyze %s: %d %.300s", scheme, st, raw)
			}
		}
	}
	local := srv.fleet.Local()
	local.InvalidateAsserts([]string{"nothing-rests-on"})

	ring := fleet.NewRing([]string{"b0", "j0"}, 0)
	place := func(sid, scheme, loop string) string { return ring.Owner(analyzeKey(sid, scheme, loop)) }
	want := placedLoopKeys(srv, place, "j0", scaf.SchemeCAF, scaf.SchemeConfluence, scaf.SchemeSCAF)
	if len(want) == 0 || len(want) == local.Len() {
		t.Fatalf("vacuous: the ring gives j0 %d of %d loop entries", len(want), local.Len())
	}

	before := local.Stats()
	st, raw := do(t, ts.URL, "POST", "/fleet/segment", segmentRequest{Nodes: []string{"b0", "j0"}, Owner: "j0"})
	if st != http.StatusOK {
		t.Fatalf("segment export: %d %.300s", st, raw)
	}
	seg, ds := persist.Decode(raw)
	if ds.Truncated || ds.Dropped != 0 {
		t.Fatalf("segment decoded dirty: %+v", ds)
	}
	got := map[string]bool{}
	for _, e := range seg.Entries {
		got[e.Key] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("segment holds %d entries, want the %d the ring places on j0:\ngot  %v\nwant %v", len(got), len(want), got, want)
	}
	if !reflect.DeepEqual(seg.Revoked, []string{"nothing-rests-on"}) {
		t.Fatalf("segment carries revoked %v, want the shard's full set", seg.Revoked)
	}
	if after := local.Stats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("export counted %d hits and %d misses", after.Hits-before.Hits, after.Misses-before.Misses)
	}
}

// TestElasticJoin is the tentpole happy path: a live join creates the
// live sessions and streams warm cache segments into the spare, flips the
// ring, and afterwards (a) answers are byte-identical to the pre-join
// fleet, (b) the joiner serves warm hits from its streamed segments
// (nonvacuity), and (c) the grown membership survives a router restart.
// The join streams exactly the entries of the analyzed loops the grown
// ring places on the joiner, one each, from the member that held it.
func TestElasticJoin(t *testing.T) {
	dir := t.TempDir()
	fl := startFleet(t, 2, true, RouterConfig{CacheDir: dir, DrainTimeout: 10 * time.Second})
	rt := fl.Router
	infos, golds := warmElasticFleet(t, fl, 6)

	st, raw := do(t, fl.URL, "POST", "/fleet/join", JoinRequest{ID: SpareID, URL: fl.BackendURL(SpareID)})
	if st != http.StatusOK {
		t.Fatalf("join: %d %.400s", st, raw)
	}
	rep := decode[MoveReport](t, raw)
	if rep.Op != "join" || len(rep.Members) != 3 {
		t.Fatalf("join report: %+v", rep)
	}
	if rep.Reconciled != len(infos) {
		t.Fatalf("join sent %d session creates and deletes to the empty joiner, want %d: %+v", rep.Reconciled, len(infos), rep)
	}
	moved := len(placedLoopKeys(fl.Backend("b0"), fl.Router.AnalyzeOwner, SpareID, scaf.SchemeSCAF))
	if moved == 0 {
		t.Fatal("the grown ring places no analyzed loop on the joiner — the cutover is vacuous")
	}
	if rep.EntriesInserted != moved {
		t.Fatalf("join inserted %d entries, want the %d analyzed loops the grown ring places on the joiner: %+v",
			rep.EntriesInserted, moved, rep)
	}

	// The joiner holds the live sessions.
	direct := fl.BackendURL(SpareID)
	_, sraw := do(t, direct, "GET", "/sessions", nil)
	if got := decode[[]SessionInfo](t, sraw); len(got) != len(infos) {
		t.Fatalf("joiner holds %d sessions, want %d", len(got), len(infos))
	}

	// Byte identity across the cutover, and nonvacuity: re-analyzing the
	// same sessions must produce the same bytes, with the joiner serving
	// whole loops from the cache tier it was streamed.
	for i, info := range infos {
		st, raw := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: "scaf"})
		if st != http.StatusOK || !bytes.Equal(raw, golds[i]) {
			t.Fatalf("analyze %d diverged across join: %d\ngot  %.300s\nwant %.300s", i, st, raw, golds[i])
		}
	}
	_, mraw := do(t, direct, "GET", "/metrics", nil)
	jm := decode[MetricsResponse](t, mraw)
	if jm.Server.FleetLoopHits == 0 {
		t.Fatalf("joiner served no fleet loop hits after the move: %+v", jm.Server)
	}

	// Router counters surface the move; no inconsistency, ever.
	_, rraw := do(t, fl.URL, "GET", "/metrics", nil)
	rm := decode[RouterMetrics](t, rraw)
	if rm.Router.Joins != 1 || rm.Router.Rollbacks != 0 || rm.Router.Inconsistent != 0 {
		t.Fatalf("router counters after join: %+v", rm.Router)
	}
	if len(rm.Router.Members) != 3 || rm.Router.Pending != "" {
		t.Fatalf("membership after join: %+v", rm.Router)
	}

	// Membership is durable: a restarted router booted from the original
	// two-backend flag learns j0 back from its snapshot.
	rt.Close()
	rt2 := NewRouter(RouterConfig{
		Backends: map[string]string{"b0": fl.BackendURL("b0"), "b1": fl.BackendURL("b1")},
		CacheDir: dir,
	})
	defer rt2.Close()
	rt2.mu.Lock()
	ids := append([]string(nil), rt2.ids...)
	rt2.mu.Unlock()
	if len(ids) != 3 || ids[2] != SpareID {
		t.Fatalf("restarted router lost the joined member: %v", ids)
	}
}

// TestElasticJoinKillJoinerMidStream kills the joiner in the middle of
// segment streaming: the move must roll back — membership, ring, and
// service exactly as before — and a retry with a fresh joiner succeeds.
func TestElasticJoinKillJoinerMidStream(t *testing.T) {
	fl := startFleet(t, 2, true, RouterConfig{CacheDir: t.TempDir(), DrainTimeout: 10 * time.Second})
	rt := fl.Router
	infos, golds := warmElasticFleet(t, fl, 4)

	rt.moveHook = func(op, phase, id string) {
		if op == "join" && phase == "streaming" {
			fl.Stop(SpareID)
		}
	}
	st, raw := do(t, fl.URL, "POST", "/fleet/join", JoinRequest{ID: SpareID, URL: fl.BackendURL(SpareID)})
	if st == http.StatusOK {
		t.Fatalf("join with a dead joiner succeeded: %.300s", raw)
	}
	if e := decode[ErrorResponse](t, raw); e.Error.Code != "join_failed" {
		t.Fatalf("code %q, want join_failed (%.300s)", e.Error.Code, raw)
	}
	if rt.rollbacks.Load() != 1 {
		t.Fatalf("rollbacks = %d, want 1", rt.rollbacks.Load())
	}

	// The fleet is exactly as before: two members, no fence, same bytes.
	_, rraw := do(t, fl.URL, "GET", "/metrics", nil)
	rm := decode[RouterMetrics](t, rraw)
	if len(rm.Router.Members) != 2 || rm.Router.Pending != "" || rm.Router.Joins != 0 {
		t.Fatalf("membership after rollback: %+v", rm.Router)
	}
	for i, info := range infos {
		st, raw := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: "scaf"})
		if st != http.StatusOK || !bytes.Equal(raw, golds[i]) {
			t.Fatalf("analyze %d degraded by the rolled-back join", i)
		}
	}

	// Retry with a restarted (empty) joiner: must go through cleanly.
	rt.moveHook = nil
	if err := fl.Restart(SpareID); err != nil {
		t.Fatal(err)
	}
	st, raw = do(t, fl.URL, "POST", "/fleet/join", JoinRequest{ID: SpareID, URL: fl.BackendURL(SpareID)})
	if st != http.StatusOK {
		t.Fatalf("retry join: %d %.400s", st, raw)
	}
	if rep := decode[MoveReport](t, raw); len(rep.Members) != 3 {
		t.Fatalf("retry join report: %+v", rep)
	}
}

// TestElasticJoinKillOwnerMidDrain kills one of the old owners at the
// draining phase: the join must still complete — the dead owner's
// segments degrade to the usual 503 shard refusal, never to a wedged or
// inconsistent fleet.
func TestElasticJoinKillOwnerMidDrain(t *testing.T) {
	fl := startFleet(t, 2, true, RouterConfig{CacheDir: t.TempDir(), DrainTimeout: 10 * time.Second})
	rt := fl.Router
	infos, _ := warmElasticFleet(t, fl, 3)

	rt.moveHook = func(op, phase, id string) {
		if op == "join" && phase == "draining" {
			fl.Stop("b1")
		}
	}
	st, raw := do(t, fl.URL, "POST", "/fleet/join", JoinRequest{ID: SpareID, URL: fl.BackendURL(SpareID)})
	if st != http.StatusOK {
		t.Fatalf("join across an owner death: %d %.400s", st, raw)
	}
	if rep := decode[MoveReport](t, raw); len(rep.Members) != 3 {
		t.Fatalf("join report: %+v", rep)
	}

	// Reads still flow: every analyze either answers the canonical bytes
	// or refuses with the bounded 503 for the dead owner's segments.
	for _, info := range infos {
		st, raw := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: "scaf"})
		if st != http.StatusOK && st != http.StatusServiceUnavailable {
			t.Fatalf("analyze after owner death: %d %.300s", st, raw)
		}
	}
	_, rraw := do(t, fl.URL, "GET", "/metrics", nil)
	rm := decode[RouterMetrics](t, rraw)
	if rm.Router.Inconsistent != 0 || rm.Router.Joins != 1 {
		t.Fatalf("router counters: %+v", rm.Router)
	}
}

// TestElasticMoveExclusion pins the one-move-at-a-time rule and the
// validation surface: double join and leave-during-join refuse with
// move_in_progress, joining a member and removing the last member
// refuse, removing a non-member 404s.
func TestElasticMoveExclusion(t *testing.T) {
	fl := startFleet(t, 2, true, RouterConfig{CacheDir: t.TempDir(), DrainTimeout: 10 * time.Second})
	rt := fl.Router
	warmElasticFleet(t, fl, 2)

	entered := make(chan struct{})
	release := make(chan struct{})
	rt.moveHook = func(op, phase, id string) {
		if op == "join" && phase == "streaming" {
			close(entered)
			<-release
		}
	}
	type result struct {
		st  int
		raw []byte
	}
	done := make(chan result, 1)
	go func() {
		st, raw := do(t, fl.URL, "POST", "/fleet/join", JoinRequest{ID: SpareID, URL: fl.BackendURL(SpareID)})
		done <- result{st, raw}
	}()
	<-entered

	// A second join and a leave while the first join is mid-move.
	if st, raw := do(t, fl.URL, "POST", "/fleet/join", JoinRequest{ID: "j1", URL: "http://127.0.0.1:1"}); st != http.StatusConflict {
		t.Fatalf("double join: %d %.300s", st, raw)
	} else if e := decode[ErrorResponse](t, raw); e.Error.Code != "move_in_progress" {
		t.Fatalf("double join code %q", e.Error.Code)
	}
	if st, raw := do(t, fl.URL, "POST", "/fleet/leave", LeaveRequest{ID: "b0"}); st != http.StatusConflict {
		t.Fatalf("leave during join: %d %.300s", st, raw)
	} else if e := decode[ErrorResponse](t, raw); e.Error.Code != "move_in_progress" {
		t.Fatalf("leave-during-join code %q", e.Error.Code)
	}
	close(release)
	if r := <-done; r.st != http.StatusOK {
		t.Fatalf("paused join did not complete: %d %.400s", r.st, r.raw)
	}

	rt.moveHook = nil
	if st, raw := do(t, fl.URL, "POST", "/fleet/join", JoinRequest{ID: "b0", URL: fl.BackendURL("b0")}); st != http.StatusConflict {
		t.Fatalf("join of a member: %d %.300s", st, raw)
	} else if e := decode[ErrorResponse](t, raw); e.Error.Code != "already_member" {
		t.Fatalf("member-join code %q", e.Error.Code)
	}
	if st, _ := do(t, fl.URL, "POST", "/fleet/leave", LeaveRequest{ID: "zz"}); st != http.StatusNotFound {
		t.Fatalf("leave of a stranger: %d", st)
	}

	// Shrink to one member, then refuse to go to zero.
	for _, id := range []string{SpareID, "b1"} {
		if st, raw := do(t, fl.URL, "POST", "/fleet/leave", LeaveRequest{ID: id}); st != http.StatusOK {
			t.Fatalf("leave %s: %d %.400s", id, st, raw)
		}
	}
	if st, raw := do(t, fl.URL, "POST", "/fleet/leave", LeaveRequest{ID: "b0"}); st != http.StatusConflict {
		t.Fatalf("leave of the last member: %d %.300s", st, raw)
	} else if e := decode[ErrorResponse](t, raw); e.Error.Code != "last_member" {
		t.Fatalf("last-member code %q", e.Error.Code)
	}
}

// TestElasticLeave pins the leave dual: a live leave hands the leaver's
// warm segments to its successors, exactly the entries of the analyzed
// loops the router placed on it, and the shrunk fleet serves the same
// bytes; removing an already-dead member completes without streaming
// (cold successors, never a wedge).
func TestElasticLeave(t *testing.T) {
	fl := startFleet(t, 3, false, RouterConfig{CacheDir: t.TempDir(), DrainTimeout: 10 * time.Second})
	rt := fl.Router
	infos, golds := warmElasticFleet(t, fl, 6)

	// The leaver is the first member the router placed an analyzed loop
	// on; the dead member is the first other one.
	leaver, dead, held := "", "", 0
	for _, id := range fl.IDs() {
		n := len(placedLoopKeys(fl.Backend("b0"), fl.Router.AnalyzeOwner, id, scaf.SchemeSCAF))
		switch {
		case n > 0 && leaver == "":
			leaver, held = id, n
		case dead == "":
			dead = id
		}
	}
	if leaver == "" {
		t.Fatal("the router placed no analyzed loop on any member")
	}

	st, raw := do(t, fl.URL, "POST", "/fleet/leave", LeaveRequest{ID: leaver})
	if st != http.StatusOK {
		t.Fatalf("leave: %d %.400s", st, raw)
	}
	rep := decode[MoveReport](t, raw)
	if rep.Op != "leave" || len(rep.Members) != 2 {
		t.Fatalf("leave report: %+v", rep)
	}
	if rep.EntriesInserted != held {
		t.Fatalf("leave of %s inserted %d entries, want the %d analyzed loops it held: %+v",
			leaver, rep.EntriesInserted, held, rep)
	}
	for i, info := range infos {
		st, raw := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: "scaf"})
		if st != http.StatusOK || !bytes.Equal(raw, golds[i]) {
			t.Fatalf("analyze %d diverged across leave: %d", i, st)
		}
	}

	// Dead-member removal: kill another member, then remove it. No
	// streaming is possible; the move must still complete.
	fl.Stop(dead)
	st, raw = do(t, fl.URL, "POST", "/fleet/leave", LeaveRequest{ID: dead})
	if st != http.StatusOK {
		t.Fatalf("leave of a dead member: %d %.400s", st, raw)
	}
	rep = decode[MoveReport](t, raw)
	if len(rep.Members) != 1 || rep.EntriesInserted != 0 || rep.OwnersSkipped == 0 {
		t.Fatalf("dead-member leave report: %+v", rep)
	}
	// The survivor serves everything (cold where segments were lost).
	for _, info := range infos {
		if st, raw := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: "scaf"}); st != http.StatusOK {
			t.Fatalf("analyze on the shrunk fleet: %d %.300s", st, raw)
		}
	}
	if rt.leaves.Load() != 2 || rt.inconsistent.Load() != 0 {
		t.Fatalf("leaves=%d inconsistent=%d", rt.leaves.Load(), rt.inconsistent.Load())
	}
}

// TestRouterProbeBackoff pins the prober's capped exponential backoff:
// consecutive failures double the reprobe delay up to ProbeMax, the
// jitter is deterministic in (id, fails), a not-yet-due backend is
// skipped by the periodic pass, and /metrics exposes the state.
func TestRouterProbeBackoff(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := l.Addr().String()
	l.Close()
	rt := NewRouter(RouterConfig{
		Backends: map[string]string{"b0": "http://" + deadAddr},
		Probe:    time.Hour, // ticker never fires during the test
		ProbeMax: 8 * time.Hour,
		Timeout:  time.Second,
	})
	defer rt.Close()
	rt.markDown("b0")

	for i := 0; i < 3; i++ {
		rt.Probe() // forced probes still do backoff bookkeeping
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	_, raw := do(t, rts.URL, "GET", "/metrics", nil)
	m := decode[RouterMetrics](t, raw)
	pi, ok := m.Router.Probes["b0"]
	if !ok || pi.Failures != 3 || pi.BackoffMS == 0 {
		t.Fatalf("probe state in metrics: %+v", m.Router.Probes)
	}

	base, limit := time.Hour, 8*time.Hour
	d1, d2, d3 := rt.backoffDelay("b0", 1), rt.backoffDelay("b0", 2), rt.backoffDelay("b0", 3)
	if d1 < base || d1 > base+base/4 {
		t.Fatalf("fails=1 delay %v outside [base, base+25%%]", d1)
	}
	if d2 < 2*base || d2 > 2*base+base/2 {
		t.Fatalf("fails=2 delay %v did not double", d2)
	}
	if d3 <= d2-base/2 {
		t.Fatalf("fails=3 delay %v did not grow past fails=2 (%v)", d3, d2)
	}
	if dCap := rt.backoffDelay("b0", 50); dCap < limit || dCap > limit+limit/4 {
		t.Fatalf("capped delay %v outside [limit, limit+25%%]", dCap)
	}
	if rt.backoffDelay("b0", 3) != d3 {
		t.Fatal("jitter is not deterministic in (id, fails)")
	}
	if rt.backoffDelay("bX", 3) == d3 {
		t.Fatal("jitter does not separate distinct backends")
	}

	// The periodic pass skips a backend whose backoff has not elapsed…
	rt.probeDue(time.Now())
	if got := rt.probe["b0"].fails; got != 3 {
		t.Fatalf("not-yet-due backend was probed: fails=%d", got)
	}
	// …and probes it once the delay has passed.
	rt.probeDue(time.Now().Add(48 * time.Hour))
	if got := rt.probe["b0"].fails; got != 4 {
		t.Fatalf("due backend was not probed: fails=%d", got)
	}
}
