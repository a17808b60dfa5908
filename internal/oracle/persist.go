package oracle

// The persist pass is the warm-restart analogue of checkFleetDrift: it
// proves that a persistent instance rebooted from its cache directory is
// byte-indistinguishable from a cold one. One persistent fleet-of-one
// instance serves a session and is drained (writing its snapshot); a
// second instance boots from the same directory and must serve the exact
// bytes the seed's cold reference instance served — with the loop
// lookaside actually hitting the reloaded entries, so the equality is not
// achieved by quietly recomputing. The restart deliberately straddles an
// /observe quarantine: after reload the revoked entries must be physical
// misses (absent from the shard and un-reinsertable), and the fresh
// session must reproduce the clean-slate bytes.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"scaf/internal/fleet"
	"scaf/internal/recovery"
	"scaf/internal/server"
)

func checkPersist(cfg Config, rep *Report, gs *goldSet) {
	dir, err := os.MkdirTemp("", "scaf-oracle-persist-")
	if err != nil {
		rep.violate(Violation{Kind: KindDriftPersist, Detail: fmt.Sprintf("temp cache dir: %v", err)})
		return
	}
	defer os.RemoveAll(dir)

	shutdown := func(srv *server.Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	bootPersist := func() *server.Server {
		return server.New(server.Config{Workers: 2, Fleet: &server.FleetConfig{Self: "p0", CacheDir: dir, CacheBytes: cfg.CacheBytes}})
	}

	srv1 := bootPersist()
	evs := newEvictionLog()
	evs.watch("cold", srv1.Fleet().Local())
	defer func() { rep.Evictions += evs.count() }()
	h1 := srv1.Handler()
	pStatus, pBody := do(h1, "POST", "/sessions", gs.create)
	if gs.createStatus != pStatus || !bytes.Equal(gs.createReply, pBody) {
		shutdown(srv1)
		rep.violate(Violation{Kind: KindDriftPersist,
			Detail: fmt.Sprintf("session create diverges: cold %d %s, persistent %d %s",
				gs.createStatus, gs.createReply, pStatus, pBody)})
		return
	}
	if gs.info.ID == "" {
		shutdown(srv1)
		return // load failure is covered by the server pass
	}

	// Cold phase: the persistent instance warms its shard with the
	// analyze golds, and must already serve their bytes.
	var golds []gold // replayed against the warm instance
	for _, g := range gs.golds {
		if !g.query {
			if ps, pb := do(h1, "POST", g.path, g.body); ps != g.status || !bytes.Equal(pb, g.want) {
				rep.violate(Violation{Kind: KindDriftPersist, Scheme: g.scheme.String(),
					Detail: fmt.Sprintf("cold-phase analyze diverges:\n  cold:       %d %s\n  persistent: %d %s", g.status, g.want, ps, pb)})
			}
		}
		if g.status == http.StatusOK {
			golds = append(golds, g)
		}
	}

	// Straddle the restart across a quarantine: violate one supporting
	// assertion on the persistent instance before it drains.
	var revKey string
	for _, e := range srv1.Fleet().Local().SnapshotEntries() {
		if len(e.Asserts) > 0 {
			revKey = e.Asserts[0]
			break
		}
	}
	if revKey != "" {
		ob, _ := json.Marshal(server.ObserveRequest{Violations: []server.WireViolation{
			{Assertion: revKey, Detail: "persist oracle: straddled restart"}}})
		if st, body := do(h1, "POST", "/sessions/"+gs.info.ID+"/observe", ob); st != http.StatusOK {
			rep.violate(Violation{Kind: KindDriftPersist,
				Detail: fmt.Sprintf("observe before drain failed: %d %s", st, body)})
			revKey = ""
		}
	}

	shutdown(srv1) // graceful drain: writes the snapshot

	srv2 := bootPersist()
	h2 := srv2.Handler()
	defer shutdown(srv2)
	local := srv2.Fleet().Local()

	// Physical-miss proof for the straddled quarantine: the revoked
	// entries did not survive the reload and cannot come back.
	if revKey != "" {
		for _, e := range local.SnapshotEntries() {
			for _, k := range e.Asserts {
				if k == revKey {
					rep.violate(Violation{Kind: KindDriftPersist,
						Detail: fmt.Sprintf("entry %q predicated on revoked %q resurrected across restart", e.Key, k)})
				}
			}
		}
		if !local.AnyRevoked([]string{revKey}) {
			rep.violate(Violation{Kind: KindDriftPersist,
				Detail: fmt.Sprintf("revocation of %q did not survive the restart", revKey)})
		}
		if local.Put(fleet.Entry{Key: "oracle|probe|fp|x", Value: []byte("{}"), Asserts: []string{revKey}}) {
			rep.violate(Violation{Kind: KindDriftPersist,
				Detail: fmt.Sprintf("reloaded shard re-admitted an entry predicated on revoked %q", revKey)})
		} else {
			rep.PersistBlocked++
		}
	}

	// Count the loop entries a fresh clean session can actually match:
	// same digest space, clean quarantine fingerprint. If one of them is
	// still resident when its loop replays, the warm replay below must
	// hit the lookaside at least once.
	cleanFP := recovery.New().Fingerprint()
	var survivors []string
	for _, e := range local.SnapshotEntries() {
		parts := strings.SplitN(e.Key, "|", 4)
		if len(parts) == 4 && parts[2] == cleanFP && server.IsLoopKey(e.Key) {
			survivors = append(survivors, e.Key)
		}
	}
	survivingLoops := len(survivors)
	rep.PersistSurvivingLoops += survivingLoops
	evs.watch("warm", local)

	// Warm phase: a fresh instance, a fresh session (same ID sequence),
	// and every gold must be served byte-identically.
	wStatus, wBody := do(h2, "POST", "/sessions", gs.create)
	if wStatus != gs.createStatus || !bytes.Equal(wBody, gs.createReply) {
		rep.violate(Violation{Kind: KindDriftPersist,
			Detail: fmt.Sprintf("warm session create diverges: cold %d %s, warm %d %s",
				gs.createStatus, gs.createReply, wStatus, wBody)})
		return
	}
	for _, g := range golds {
		ws, wb := do(h2, "POST", g.path, g.body)
		if ws != http.StatusOK || !bytes.Equal(wb, g.want) {
			rep.violate(Violation{Kind: KindDriftPersist, Scheme: g.scheme.String(),
				Detail: fmt.Sprintf("warm-restart answer diverges from cold:\n  cold: %s\n  warm: %d %s", g.want, ws, wb)})
		}
	}

	// Nonvacuity: the equality must come from the snapshot, not from
	// silent recomputation. The replay's own publications may evict a
	// surviving entry before its loop replays, so a hit is demanded only
	// when some survivor was never evicted: it was resident when its loop
	// replayed.
	ms, mb := do(h2, "GET", "/metrics", nil)
	var m server.MetricsResponse
	if ms != http.StatusOK || json.Unmarshal(mb, &m) != nil {
		rep.violate(Violation{Kind: KindDriftPersist, Detail: fmt.Sprintf("warm metrics unreadable: %d %s", ms, mb)})
		return
	}
	rep.PersistWarmHits += m.Server.FleetLoopHits
	resident := 0
	for _, k := range survivors {
		if evs.evictions("warm", k) == 0 {
			resident++
		}
	}
	if resident > 0 && m.Server.FleetLoopHits == 0 {
		rep.violate(Violation{Kind: KindDriftPersist,
			Detail: fmt.Sprintf("%d clean loop entries survived the restart, %d of them never evicted, but the warm replay never hit the lookaside", survivingLoops, resident)})
	}
	if m.Persist == nil || m.Persist.Loaded == 0 && survivingLoops > 0 {
		rep.violate(Violation{Kind: KindDriftPersist,
			Detail: fmt.Sprintf("warm instance reports no loaded snapshot entries: %+v", m.Persist)})
	}
}
