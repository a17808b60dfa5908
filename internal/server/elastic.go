package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"time"

	"scaf/internal/fleet"
	"scaf/internal/persist"
)

// Live fleet elasticity: the router can grow and shrink the backend set
// while serving traffic. Join and leave are one per-segment cutover state
// machine, move — pending → streaming → draining → owned — built so the
// only client-visible effect of a planned move is a bounded, retryable
// 503 on the segments that are moving:
//
//   - pending: a joiner is registered in the address book but excluded
//     from broadcasts and placement.
//   - streaming: each segment that changes owner is exported by its old
//     owner and restored on its new one, through the persist codec, so
//     the transfer inherits the corruption-to-miss ladder — a torn stream
//     yields a cold segment, never a wrong entry. A segment is cut by the
//     router's own placement (analyzeKey), which is where every loop
//     entry lives.
//   - draining: a joiner is caught up as a rejoining backend is (catchUp:
//     its sessions become the live ones under the same IDs, and each
//     one's quarantine the union over it and the members), mutations and
//     recovery replication serialize behind the broadcast lock, a segment
//     fence refuses reads whose owner changes between the rings (503 +
//     Retry-After), and the read generation in flight under the old
//     placement is drained.
//   - owned: the ring flips; no request was ever answered by two owners.
//
// Any failure that cannot be attributed and repaired rolls the move back
// to the old owners: membership is unchanged, a joiner's registration is
// dropped, and the fence comes down. Only a join catches its backend up
// and checks its health once more before the flip. Only a leave streams
// nothing from a mover that is already dead, and skips a successor that
// fails to restore a segment, where a joiner that fails to restore one
// rolls the join back.

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
// Reconciled counts the session creates and deletes sent to catch a
// joiner up.
type MoveReport struct {
	Op              string         `json:"op"`
	ID              string         `json:"id"`
	Reconciled      int            `json:"reconciled"`
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

// handleMove serves POST /fleet/join and POST /fleet/leave: it registers
// the move, runs it, and rolls it back if it fails.
func (rt *Router) handleMove(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		var req JoinRequest // a LeaveRequest is its ID alone
		if err := json.Unmarshal(body, &req); err != nil || req.ID == "" || (op == "join" && req.URL == "") {
			need := "id"
			if op == "join" {
				need = "id and url"
			}
			writeError(w, errBadRequest("%s needs a JSON body with %s", op, need))
			return
		}
		from, to, he := rt.beginMove(op, req.ID, req.URL)
		if he == nil {
			var rep *MoveReport
			if rep, he = rt.move(op, req.ID, from, to); he == nil {
				writeJSON(w, http.StatusOK, rep)
				return
			}
			rt.rollbackMove(op, req.ID)
		}
		writeError(w, he)
	}
}

// beginMove checks op on backend id against the membership, registers it
// as the one move in progress (a joiner also in the address book, at
// url), and returns the members before and after it.
func (rt *Router) beginMove(op, id, url string) (from, to []string, he *httpError) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	_, known := rt.base[id]
	switch {
	case rt.moveID != "":
		return nil, nil, moveErr(http.StatusConflict, "move_in_progress",
			"%s of %s is in progress; one membership change at a time", rt.moveOp, rt.moveID)
	case op == "join" && known:
		return nil, nil, moveErr(http.StatusConflict, "already_member",
			"backend %s is already a fleet member", id)
	case op == "leave" && !slices.Contains(rt.ids, id):
		return nil, nil, moveErr(http.StatusNotFound, "not_a_member",
			"backend %s is not a fleet member", id)
	case op == "leave" && len(rt.ids) == 1:
		return nil, nil, moveErr(http.StatusConflict, "last_member",
			"refusing to remove the last backend %s", id)
	}
	from = slices.Clone(rt.ids)
	if op == "join" {
		rt.base[id] = url
		to = append(slices.Clone(from), id)
		sort.Strings(to)
	} else {
		to = slices.DeleteFunc(slices.Clone(from), func(x string) bool { return x == id })
	}
	rt.moveID, rt.moveOp = id, op
	return from, to, nil
}

// rollbackMove abandons an in-progress move: the fence comes down, the
// old ring keeps ownership, and a joiner that never became a member
// loses its registration. The fleet is exactly as before the request.
func (rt *Router) rollbackMove(op, id string) {
	rt.mu.Lock()
	if !slices.Contains(rt.ids, id) {
		delete(rt.base, id)
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

// healthy reports whether backend id answers its health check.
func (rt *Router) healthy(id string) bool {
	st, _, _ := rt.send(id, hop{method: http.MethodGet, path: "/healthz", probe: true})
	return st == http.StatusOK
}

// move changes the membership from the members from to the members to,
// where id is the one backend that joins (op "join") or leaves ("leave").
// beginMove registered it; the caller rolls it back on an error.
func (rt *Router) move(op, id string, from, to []string) (*MoveReport, *httpError) {
	rt.hook(op, "pending", id)
	rep := &MoveReport{Op: op, ID: id, Segments: map[string]int{}}
	next := fleet.NewRing(to, 0)

	// Stream each segment that changes owner, un-fenced: traffic keeps
	// flowing under the old placement, and entries published meanwhile
	// merely miss the transfer (warmth, not correctness: cache keys are
	// self-validating). Only the mover's segments change owner, so each
	// other member is one counterpart: an old owner streaming to a
	// joiner, or a successor taking a leaver's segment. A counterpart
	// that is down or fails is skipped (its segment starts cold), and so
	// is every one of a dead leaver's: the leave path is the recovery
	// path for permanent loss and must not wedge on the corpse. A joiner
	// that cannot restore is not skipped: that failure is
	// unattributable, so the join rolls back.
	rt.hook(op, "streaming", id)
	dead := op == "leave" && (rt.isDown(id) || !rt.healthy(id))
	for _, c := range to {
		if c == id {
			continue
		}
		src, dst := c, id
		if op == "leave" {
			src, dst = id, c
		}
		if dead || rt.isDown(c) {
			rep.OwnersSkipped++
			continue
		}
		segReq, _ := json.Marshal(segmentRequest{Nodes: to, Owner: dst})
		st, _, seg := rt.send(src, hop{method: http.MethodPost, path: "/fleet/segment", body: segReq, probe: true})
		if st != http.StatusOK {
			rep.OwnersSkipped++
			continue
		}
		st, _, resp := rt.send(dst, hop{method: http.MethodPost, path: "/fleet/restore", body: seg, probe: true})
		if st != http.StatusOK {
			if op == "join" {
				return nil, moveErr(http.StatusBadGateway, "join_failed",
					"joiner %s failed to restore the segment streamed from %s", id, c)
			}
			rep.OwnersSkipped++
			continue
		}
		var rr SegmentRestoreResponse
		_ = json.Unmarshal(resp, &rr)
		rep.Segments[c] = rr.Inserted
		rep.EntriesInserted += rr.Inserted
		rep.EntriesRejected += rr.Rejected
	}

	// Fenced phase: serialize against mutations (a joiner's catch-up
	// takes bmu for its second pass), fence the moving segments, drain
	// the in-flight reads, and only then flip ownership.
	var err error
	if op == "join" {
		rep.Reconciled, err = rt.catchUp(id)
	} else {
		rt.bmu.Lock()
	}
	defer rt.bmu.Unlock()
	if err != nil {
		return nil, moveErr(http.StatusBadGateway, "join_failed", "catching up joiner %s: %v", id, err)
	}
	rt.hook(op, "draining", id)
	start := time.Now()
	if !rt.fenceAndDrain(next) {
		return nil, moveErr(http.StatusGatewayTimeout, "drain_timeout",
			"in-flight reads did not drain; %s of %s rolled back", op, id)
	}
	rep.DrainMS = time.Since(start).Milliseconds()

	// Last look before the point of no return: a joiner that died during
	// the drain must not be handed segments.
	if op == "join" && !rt.healthy(id) {
		return nil, moveErr(http.StatusBadGateway, "join_failed",
			"joiner %s died before cutover", id)
	}

	gone := slices.DeleteFunc(slices.Clone(from), func(x string) bool { return slices.Contains(to, x) })
	rt.mu.Lock()
	rt.ids, rt.ring, rt.nextRing = to, next, nil
	rt.moveID, rt.moveOp = "", ""
	for _, g := range gone {
		delete(rt.base, g)
		delete(rt.down, g)
		delete(rt.probe, g)
	}
	rt.mu.Unlock()
	if op == "join" {
		rt.joins.Add(1)
	} else {
		rt.leaves.Add(1)
	}
	rt.hook(op, "owned", id)
	rep.Members = to
	if rt.cfg.CacheDir != "" {
		rt.savePersist()
	}
	return rep, nil
}

// ---- backend-side segment transfer ----

// segmentRequest asks a backend to export the slice of its local cache
// shard that owner will hold under the ring built from nodes: the loop
// entries of the loops that ring places on owner.
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
// will hold under the requested ring. The router places every read of a
// loop by analyzeKey, and a loop's entry lives on the backend its reads
// went to, so the segment is the entries of every registered session's
// loops, under each scheme, that the ring places on owner. A shard holds
// only the loops it was sent (or restored), so an old owner streams
// exactly what moves. Entries come from a snapshot of the shard, which
// counts no hit and marks no entry recently used.
//
// The segment is encoded with the persist framing: the wire image
// carries the same per-record and per-entry checksums as a disk
// snapshot, so a corrupted transfer degrades to the valid prefix on the
// receiving end — cold segments, never wrong ones. The full revoked set
// rides along (it is global and monotone; Restore applies it before
// entries).
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
	ring := fleet.NewRing(req.Nodes, 0)
	moving := map[string]bool{}
	for _, sess := range s.registered() {
		for scheme := range sess.caches { // every scheme the session serves
			for _, l := range sess.hot {
				if ring.Owner(analyzeKey(sess.id, scheme.String(), l.Name())) == req.Owner {
					moving[sess.fleetLoopKey(scheme, l)] = true
				}
			}
		}
	}
	local := s.fleet.Local()
	seg := persist.Snapshot{Revoked: local.RevokedKeys()}
	for _, e := range local.SnapshotEntries() {
		if moving[e.Key] {
			seg.Entries = append(seg.Entries, e)
		}
	}
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
