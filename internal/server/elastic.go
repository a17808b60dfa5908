package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"scaf/internal/fleet"
	"scaf/internal/persist"
)

// Live fleet elasticity: the router can grow and shrink the backend set
// while serving traffic. A membership change is a per-segment cutover
// state machine — pending → streaming → draining → owned — built so the
// only client-visible effect of a planned move is a bounded, retryable
// 503 on the segments that are moving:
//
//   - pending: the newcomer is registered but excluded from broadcasts
//     and placement; it is caught up like a rejoining backend (journal
//     replay rebuilds the same session IDs in the same order, quarantine
//     is re-synced as the union over live peers).
//   - streaming: each current owner exports the cache segment the
//     newcomer will own under the next ring, through the persist codec,
//     so the transfer inherits the corruption-to-miss ladder — a torn
//     stream yields a cold segment, never a wrong entry.
//   - draining: mutations serialize behind the broadcast lock, a segment
//     fence refuses reads whose owner changes between the rings (503 +
//     Retry-After), and the read generation in flight under the old
//     placement is drained to completion.
//   - owned: the ring flips; no request was ever answered by two owners.
//
// Any failure that cannot be attributed and repaired rolls the move back
// to the old owners: membership is unchanged, the newcomer's registration
// is dropped, and the fence comes down. Leave is the dual, with one
// asymmetry: a leaver that is already dead is removed without streaming —
// dead-member removal is the permanent-loss recovery path and must never
// wedge on the corpse.

// JoinRequest admits one backend into the fleet.
type JoinRequest struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// LeaveRequest removes one backend from the fleet.
type LeaveRequest struct {
	ID string `json:"id"`
}

// MoveReport is the admin-visible outcome of a completed join or leave.
type MoveReport struct {
	Op              string         `json:"op"`
	ID              string         `json:"id"`
	JournalReplayed int            `json:"journal_replayed"`
	Segments        map[string]int `json:"segments,omitempty"` // counterpart -> entries restored
	EntriesInserted int            `json:"entries_inserted"`
	EntriesRejected int            `json:"entries_rejected"`
	OwnersSkipped   int            `json:"owners_skipped,omitempty"`
	DrainMS         int64          `json:"drain_ms"`
	Members         []string       `json:"members"`
}

func moveErr(status int, code, format string, args ...any) *httpError {
	return &httpError{status: status,
		detail: ErrorDetail{Code: code, Message: fmt.Sprintf(format, args...)}}
}

func (rt *Router) hook(op, phase, id string) {
	if rt.moveHook != nil {
		rt.moveHook(op, phase, id)
	}
}

// rollbackMove abandons an in-progress move: the fence comes down, the
// old ring keeps ownership, and a joiner that never became a member
// loses its registration. The fleet is exactly as before the request.
func (rt *Router) rollbackMove(op, id string) {
	rt.mu.Lock()
	if op == "join" {
		member := false
		for _, x := range rt.ids {
			if x == id {
				member = true
			}
		}
		if !member {
			delete(rt.base, id)
		}
	}
	rt.nextRing = nil
	rt.moveID, rt.moveOp = "", ""
	rt.mu.Unlock()
	rt.rollbacks.Add(1)
	rt.hook(op, "rolledback", id)
}

// fenceAndDrain installs the segment fence (nextRing) and swaps in a
// fresh read generation, then waits for every read admitted under the
// old placement to finish. False means the drain timed out; the waiter
// goroutine then lingers until those reads end (bounded by the backend
// request timeout), which is harmless — generations are drain barriers,
// not resources.
func (rt *Router) fenceAndDrain(next *fleet.Ring) bool {
	rt.mu.Lock()
	rt.nextRing = next
	old := rt.gen
	rt.gen = &readGen{}
	rt.mu.Unlock()
	timeout := rt.cfg.DrainTimeout
	if timeout <= 0 {
		timeout = defaultDrainTimeout
	}
	ch := make(chan struct{})
	go func() { old.wg.Wait(); close(ch) }()
	select {
	case <-ch:
		return true
	case <-time.After(timeout):
		return false
	}
}

// ---- join ----

func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req JoinRequest
	if err := json.Unmarshal(body, &req); err != nil || req.ID == "" || req.URL == "" {
		writeError(w, errBadRequest("join needs a JSON body with id and url"))
		return
	}
	rt.mu.Lock()
	if rt.moveID != "" {
		op, mid := rt.moveOp, rt.moveID
		rt.mu.Unlock()
		writeError(w, moveErr(http.StatusConflict, "move_in_progress",
			"%s of %s is in progress; one membership change at a time", op, mid))
		return
	}
	if _, exists := rt.base[req.ID]; exists {
		rt.mu.Unlock()
		writeError(w, moveErr(http.StatusConflict, "already_member",
			"backend %s is already a fleet member", req.ID))
		return
	}
	rt.moveID, rt.moveOp = req.ID, "join"
	rt.base[req.ID] = req.URL
	members := append([]string(nil), rt.ids...)
	rt.mu.Unlock()

	rep, he := rt.runJoin(req.ID, members)
	if he != nil {
		rt.rollbackMove("join", req.ID)
		writeError(w, he)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (rt *Router) runJoin(id string, members []string) (*MoveReport, *httpError) {
	rt.hook("join", "pending", id)

	// The joiner must be alive, and either empty (fresh process: replay
	// the journal into it) or already holding exactly our session set (a
	// retry after a rollback later in the move). Anything else is foreign
	// state we must not own.
	if st, _, _ := rt.probeSend(id, http.MethodGet, "/healthz", nil); st != http.StatusOK {
		return nil, moveErr(http.StatusBadGateway, "join_failed", "joiner %s is unreachable", id)
	}
	st, _, body := rt.probeSend(id, http.MethodGet, "/sessions", nil)
	if st != http.StatusOK {
		return nil, moveErr(http.StatusBadGateway, "join_failed", "joiner %s cannot list sessions", id)
	}
	var have []SessionInfo
	if err := json.Unmarshal(body, &have); err != nil {
		return nil, moveErr(http.StatusBadGateway, "join_failed", "joiner %s returned a malformed session list", id)
	}

	rt.mu.Lock()
	j0 := len(rt.journal)
	journal := append([]routerJournalEntry(nil), rt.journal...)
	want := make(map[string]bool, len(rt.sessions))
	for sid := range rt.sessions {
		want[sid] = true
	}
	rt.mu.Unlock()

	rep := &MoveReport{Op: "join", ID: id, Segments: map[string]int{}}
	switch {
	case len(have) == 0:
		for _, e := range journal {
			if st, _, _ := rt.probeSend(id, e.method, e.path, e.body); st == 0 {
				return nil, moveErr(http.StatusBadGateway, "join_failed",
					"joiner %s died during journal replay", id)
			}
			rep.JournalReplayed++
		}
	case matchesSessionSet(have, want):
		// Already caught up; only the segments need (re)streaming.
	default:
		return nil, moveErr(http.StatusConflict, "joiner_state",
			"joiner %s holds sessions that are not ours; restart it empty", id)
	}
	if !rt.syncQuarantine(id, want) {
		return nil, moveErr(http.StatusBadGateway, "join_failed",
			"quarantine sync to joiner %s failed", id)
	}

	// Stream the joiner's future segments from their current owners,
	// un-fenced: traffic keeps flowing under the old placement, and
	// entries published meanwhile merely miss the transfer (warmth, not
	// correctness — the fenced phase below catches up sessions, and
	// cache keys are self-validating). An owner that cannot export is
	// tolerated (those segments start cold); a joiner that cannot
	// restore is not — that failure is unattributable, so the move rolls
	// back to the old owners.
	rt.hook("join", "streaming", id)
	newMembers := append(append([]string(nil), members...), id)
	sort.Strings(newMembers)
	newRing := fleet.NewRing(newMembers, 0)
	segReq, _ := json.Marshal(segmentRequest{Nodes: newMembers, Owner: id})
	for _, ob := range members {
		if rt.isDown(ob) {
			rep.OwnersSkipped++
			continue
		}
		st, _, seg := rt.probeSend(ob, http.MethodPost, "/fleet/segment", segReq)
		if st != http.StatusOK {
			rep.OwnersSkipped++
			continue
		}
		st, _, resp := rt.probeSend(id, http.MethodPost, "/fleet/restore", seg)
		if st != http.StatusOK {
			return nil, moveErr(http.StatusBadGateway, "join_failed",
				"joiner %s failed to restore the segment streamed from %s", id, ob)
		}
		var rr SegmentRestoreResponse
		_ = json.Unmarshal(resp, &rr)
		rep.Segments[ob] = rr.Inserted
		rep.EntriesInserted += rr.Inserted
		rep.EntriesRejected += rr.Rejected
	}

	// Fenced phase: serialize against mutations, replay the journal tail
	// that accumulated while streaming, fence the moving segments, drain
	// the in-flight reads, and only then flip ownership.
	rt.bmu.Lock()
	defer rt.bmu.Unlock()

	rt.mu.Lock()
	tail := append([]routerJournalEntry(nil), rt.journal[j0:]...)
	want = make(map[string]bool, len(rt.sessions))
	for sid := range rt.sessions {
		want[sid] = true
	}
	rt.mu.Unlock()
	for _, e := range tail {
		if st, _, _ := rt.probeSend(id, e.method, e.path, e.body); st == 0 {
			return nil, moveErr(http.StatusBadGateway, "join_failed",
				"joiner %s died during tail catch-up", id)
		}
		rep.JournalReplayed++
	}
	if len(tail) > 0 && !rt.syncQuarantine(id, want) {
		return nil, moveErr(http.StatusBadGateway, "join_failed",
			"quarantine re-sync to joiner %s failed", id)
	}

	rt.hook("join", "draining", id)
	start := time.Now()
	if !rt.fenceAndDrain(newRing) {
		return nil, moveErr(http.StatusGatewayTimeout, "drain_timeout",
			"in-flight reads did not drain; join of %s rolled back", id)
	}
	rep.DrainMS = time.Since(start).Milliseconds()

	// Last look before the point of no return: a joiner that died during
	// the drain must not be handed segments.
	if st, _, _ := rt.probeSend(id, http.MethodGet, "/healthz", nil); st != http.StatusOK {
		return nil, moveErr(http.StatusBadGateway, "join_failed",
			"joiner %s died before cutover", id)
	}

	// Teach every cache tier the full membership (including the joiner)
	// before its segments take traffic, so recovery broadcasts and peer
	// lookups reach it from the first post-flip request. Best effort.
	for _, m := range newMembers {
		rt.pushMembers(m)
	}

	rt.mu.Lock()
	rt.ids = newMembers
	rt.ring = newRing
	rt.nextRing = nil
	rt.moveID, rt.moveOp = "", ""
	rt.mu.Unlock()
	rt.joins.Add(1)
	rt.hook("join", "owned", id)
	rep.Members = newMembers
	if rt.cfg.CacheDir != "" {
		rt.savePersist()
	}
	return rep, nil
}

// ---- leave ----

func (rt *Router) handleLeave(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req LeaveRequest
	if err := json.Unmarshal(body, &req); err != nil || req.ID == "" {
		writeError(w, errBadRequest("leave needs a JSON body with id"))
		return
	}
	rt.mu.Lock()
	if rt.moveID != "" {
		op, mid := rt.moveOp, rt.moveID
		rt.mu.Unlock()
		writeError(w, moveErr(http.StatusConflict, "move_in_progress",
			"%s of %s is in progress; one membership change at a time", op, mid))
		return
	}
	member := false
	for _, x := range rt.ids {
		if x == req.ID {
			member = true
		}
	}
	if !member {
		rt.mu.Unlock()
		writeError(w, moveErr(http.StatusNotFound, "not_a_member",
			"backend %s is not a fleet member", req.ID))
		return
	}
	if len(rt.ids) == 1 {
		rt.mu.Unlock()
		writeError(w, moveErr(http.StatusConflict, "last_member",
			"refusing to remove the last backend %s", req.ID))
		return
	}
	rt.moveID, rt.moveOp = req.ID, "leave"
	var remaining []string
	for _, x := range rt.ids {
		if x != req.ID {
			remaining = append(remaining, x)
		}
	}
	rt.mu.Unlock()

	rep, he := rt.runLeave(req.ID, remaining)
	if he != nil {
		rt.rollbackMove("leave", req.ID)
		writeError(w, he)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (rt *Router) runLeave(id string, remaining []string) (*MoveReport, *httpError) {
	rt.hook("leave", "pending", id)
	newRing := fleet.NewRing(remaining, 0)
	rep := &MoveReport{Op: "leave", ID: id, Segments: map[string]int{}}

	// Stream the leaver's warm shard to its successors — unless it is
	// already dead. Removing a dead member IS the permanent-loss recovery
	// path; it must never wedge on the corpse, so its segments simply
	// start cold on the successors. Streaming failures on a live leaver
	// are tolerated for the same reason: the entries still exist nowhere
	// else after the flip, and cold is an acceptable (counted) outcome of
	// an explicit departure.
	rt.hook("leave", "streaming", id)
	alive := !rt.isDown(id)
	if alive {
		if st, _, _ := rt.probeSend(id, http.MethodGet, "/healthz", nil); st != http.StatusOK {
			alive = false
		}
	}
	if alive {
		for _, s := range remaining {
			if rt.isDown(s) {
				rep.OwnersSkipped++
				continue
			}
			segReq, _ := json.Marshal(segmentRequest{Nodes: remaining, Owner: s})
			st, _, seg := rt.probeSend(id, http.MethodPost, "/fleet/segment", segReq)
			if st != http.StatusOK {
				rep.OwnersSkipped++
				continue
			}
			st, _, resp := rt.probeSend(s, http.MethodPost, "/fleet/restore", seg)
			if st != http.StatusOK {
				rep.OwnersSkipped++
				continue
			}
			var rr SegmentRestoreResponse
			_ = json.Unmarshal(resp, &rr)
			rep.Segments[s] = rr.Inserted
			rep.EntriesInserted += rr.Inserted
			rep.EntriesRejected += rr.Rejected
		}
	} else {
		rep.OwnersSkipped = len(remaining)
	}

	// Fenced phase: mutations hold, moving segments refuse, in-flight
	// reads drain, then the leaver is gone from placement.
	rt.bmu.Lock()
	defer rt.bmu.Unlock()
	rt.hook("leave", "draining", id)
	start := time.Now()
	if !rt.fenceAndDrain(newRing) {
		return nil, moveErr(http.StatusGatewayTimeout, "drain_timeout",
			"in-flight reads did not drain; leave of %s rolled back", id)
	}
	rep.DrainMS = time.Since(start).Milliseconds()

	rt.mu.Lock()
	rt.ids = remaining
	delete(rt.base, id)
	delete(rt.down, id)
	delete(rt.probe, id)
	rt.ring = newRing
	rt.nextRing = nil
	rt.moveID, rt.moveOp = "", ""
	rt.mu.Unlock()
	rt.leaves.Add(1)
	rt.hook("leave", "owned", id)
	rep.Members = remaining

	// Drop the departed peer from the survivors' cache tiers (best
	// effort; a stale peer entry costs timeouts that the per-op budget
	// already fails open).
	rm, _ := json.Marshal(fleet.MembersRequest{Remove: []string{id}})
	for _, s := range remaining {
		rt.probeSend(s, http.MethodPost, "/fleet/members", rm)
	}
	if rt.cfg.CacheDir != "" {
		rt.savePersist()
	}
	return rep, nil
}

// ---- backend-side segment transfer ----

// segmentRequest asks a backend to export the slice of its local cache
// shard that owner will hold under the ring built from nodes.
type segmentRequest struct {
	Nodes []string `json:"nodes"`
	Owner string   `json:"owner"`
}

// SegmentRestoreResponse reports what a segment restore accepted.
type SegmentRestoreResponse struct {
	Inserted  int  `json:"inserted"`
	Rejected  int  `json:"rejected"`
	Dropped   int  `json:"dropped,omitempty"`
	Truncated bool `json:"truncated,omitempty"`
}

// handleFleetSegment exports this backend's cache entries that owner
// will hold under the requested ring, encoded with the persist framing:
// the wire image carries the same per-record and per-entry checksums as
// a disk snapshot, so a corrupted transfer degrades to the valid prefix
// on the receiving end — cold segments, never wrong ones. The full
// revoked set rides along (it is global and monotone; Restore applies
// it before entries).
func (s *Server) handleFleetSegment(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req segmentRequest
	if err := json.Unmarshal(body, &req); err != nil || len(req.Nodes) == 0 || req.Owner == "" {
		writeError(w, errBadRequest("segment export needs {nodes, owner}"))
		return
	}
	local := s.fleet.Local()
	seg := persist.Segment(persist.Snapshot{
		Revoked: local.RevokedKeys(),
		Entries: local.SnapshotEntries(),
	}, fleet.NewRing(req.Nodes, 0), req.Owner)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(persist.Encode(seg))
}

// handleFleetRestore installs a streamed segment into the local cache
// shard through the full validation ladder: persist decode (checksums,
// framing, key shape) then Restore (revocations first, canonical-entry
// checks). Anything the ladder rejects is reported, not installed.
func (s *Server) handleFleetRestore(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxPeerResponse))
	if err != nil {
		writeError(w, errBadRequest("reading segment body: %v", err))
		return
	}
	snap, ds := persist.Decode(data)
	inserted, rejected := s.fleet.Local().Restore(snap.Revoked, snap.Entries)
	writeJSON(w, http.StatusOK, SegmentRestoreResponse{
		Inserted:  inserted,
		Rejected:  rejected,
		Dropped:   ds.Dropped,
		Truncated: ds.Truncated,
	})
}
