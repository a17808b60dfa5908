package oracle

// The elastic pass proves that live membership change is invisible at the
// byte level. It continues on the fleet the fleet pass has just checked,
// which boots with one spare backend: the spare joins WHILE concurrent
// clients hammer the golds — every request must end in the gold bytes,
// with bounded 503 backend_down retries (the drained-cutover window) as
// the only permitted detour. After the join the golds must replay
// byte-identically through the grown fleet, and the joiner must actually
// serve from the state the cutover streamed to it (nonvacuity: its loop
// lookaside hits, checked whenever the router now places at least one
// analyze loop on it). Then one original backend leaves and the shrunk
// fleet must still serve the same bytes. Throughout, the router must
// report zero broadcast inconsistencies and zero rollbacks — a planned
// move never manufactures split brain.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"scaf/internal/server"
)

// elasticRetryCap bounds how many 503 retries one hammered request may
// burn before the window counts as unbounded (a violation).
const elasticRetryCap = 400

// checkElasticDrift runs the join and leave on fl, whose static members
// have just served golds byte-identically to the reference.
func checkElasticDrift(cfg Config, rep *Report, fl *server.LoopbackFleet, c routerClient, info server.SessionInfo, golds []gold) {
	if len(golds) == 0 {
		return
	}
	// Deliver every queued publication to its ring owner, so the join
	// has warm segments to stream.
	fl.Flush()

	// Join phase: grow the fleet while concurrent clients replay every
	// gold. A bounded run of 503 backend_down on moving segments is the
	// only detour the cutover may show them; the final bytes must be gold.
	type reply struct {
		status int
		body   []byte
	}
	joined := make(chan reply, 1)
	go func() {
		joinBody, _ := json.Marshal(server.JoinRequest{ID: server.SpareID, URL: fl.BackendURL(server.SpareID)})
		st, body := c.do("POST", "/fleet/join", joinBody)
		joined <- reply{st, body}
	}()
	fire(rep, golds, func(g gold) *Violation {
		st, body, retries := c.retryDo(g.path, g.body)
		if st == http.StatusOK && goldEqual(g, body) {
			return nil
		}
		return &Violation{Kind: KindDriftElastic, Scheme: g.scheme.String(), Loop: g.loop,
			Detail: fmt.Sprintf("answer under live join diverges after %d retries:\n  gold: %s\n  got:  %d %s",
				retries, g.want, st, body)}
	})
	join := <-joined
	if join.status != http.StatusOK {
		rep.violate(Violation{Kind: KindDriftElastic, Detail: fmt.Sprintf("join failed: %d %s", join.status, join.body)})
		return
	}
	var joinRep server.MoveReport
	if err := json.Unmarshal(join.body, &joinRep); err != nil {
		rep.violate(Violation{Kind: KindDriftElastic, Detail: fmt.Sprintf("bad join report: %v", err)})
		return
	}

	// Post-join serial replay: the grown fleet must serve the same bytes,
	// including on segments now owned by the joiner.
	replay := func(phase string) bool {
		ok := true
		for _, g := range golds {
			st, body := c.do("POST", g.path, g.body)
			if st != http.StatusOK || !goldEqual(g, body) {
				ok = false
				rep.violate(Violation{Kind: KindDriftElastic, Scheme: g.scheme.String(), Loop: g.loop,
					Detail: fmt.Sprintf("%s answer diverges:\n  gold: %s\n  got:  %d %s", phase, g.want, st, body)})
			}
		}
		return ok
	}
	if !replay("post-join") {
		return
	}

	// Nonvacuity: if the grown ring places at least one analyze loop on
	// the joiner, the post-join replay above routed it there and its loop
	// lookaside — warmed by the streamed segments and its new peers —
	// must have hit. Byte equality achieved by silently recomputing
	// everything from scratch would pass the replay; this catches it.
	movedAnalyze := 0
	for _, scheme := range cfg.Schemes {
		for _, l := range info.HotLoops {
			if fl.Router.AnalyzeOwner(info.ID, scheme.String(), l.Name) == server.SpareID {
				movedAnalyze++
			}
		}
	}
	if movedAnalyze > 0 {
		jm, err := fl.Metrics(server.SpareID)
		if err != nil {
			rep.violate(Violation{Kind: KindDriftElastic, Detail: fmt.Sprintf("joiner metrics: %v", err)})
			return
		}
		rep.ElasticWarmHits += jm.Server.FleetLoopHits
		if jm.Server.FleetLoopHits == 0 {
			rep.violate(Violation{Kind: KindDriftElastic,
				Detail: fmt.Sprintf("%d analyze segments moved to the joiner (join streamed %d entries) but its loop lookaside never hit",
					movedAnalyze, joinRep.EntriesInserted)})
		}
	}

	// Leave phase: the dual. An original owner departs, handing its
	// segments to the survivors; the shrunk fleet must still serve gold.
	leaveBody, _ := json.Marshal(server.LeaveRequest{ID: "b0"})
	if st, body := c.do("POST", "/fleet/leave", leaveBody); st != http.StatusOK {
		rep.violate(Violation{Kind: KindDriftElastic, Detail: fmt.Sprintf("leave failed: %d %s", st, body)})
		return
	}
	if !replay("post-leave") {
		return
	}

	// A planned move must never manufacture split brain or wedge the
	// router: zero broadcast inconsistencies, zero rollbacks, no move
	// still pending.
	rm, err := fl.RouterMetrics()
	if err != nil {
		rep.violate(Violation{Kind: KindDriftElastic, Detail: fmt.Sprintf("router metrics unreadable: %v", err)})
		return
	}
	rc := rm.Router
	if rc.Inconsistent != 0 || rc.Rollbacks != 0 || rc.Pending != "" || rc.Joins != 1 || rc.Leaves != 1 {
		rep.violate(Violation{Kind: KindDriftElastic,
			Detail: fmt.Sprintf("router counters after join+leave: inconsistent=%d rollbacks=%d pending=%q joins=%d leaves=%d",
				rc.Inconsistent, rc.Rollbacks, rc.Pending, rc.Joins, rc.Leaves)})
	}
}

// goldEqual compares a reply with g's gold bytes; for a query the
// coalesce marker is timing, not semantics, and is ignored.
func goldEqual(g gold, body []byte) bool {
	if g.query {
		return bytes.Equal(stripCoalesce(body), stripCoalesce(g.want))
	}
	return bytes.Equal(body, g.want)
}

// retryDo posts one request through the router, retrying bounded 503
// backend_down responses (the drained-cutover window) after the
// advertised Retry-After. It returns the final status, body, and retry
// count.
func (c routerClient) retryDo(path string, body []byte) (int, []byte, int) {
	for retries := 0; ; retries++ {
		st, retryAfter, b := c.send("POST", path, body)
		if st != http.StatusServiceUnavailable || retries >= elasticRetryCap {
			return st, b, retries
		}
		// Honor Retry-After, capped so the pass stays fast on loopback
		// (the router advertises whole seconds; the window is far shorter).
		delay := 25 * time.Millisecond
		if ra, err := strconv.Atoi(retryAfter); err == nil && ra > 0 {
			if d := time.Duration(ra) * time.Second / 20; d > delay {
				delay = d
			}
		}
		time.Sleep(delay)
	}
}
