// Command scaf-serve runs the SCAF analysis daemon: it loads compiled MC
// programs as sessions (program + profile + validated speculation plan +
// warm orchestrator pool) and serves alias/mod-ref/dependence queries
// over HTTP/JSON until terminated.
//
//	scaf-serve -addr :8347 -preload 181.mcf,052.alvinn
//
// Endpoints:
//
//	GET    /healthz                  liveness + session count
//	GET    /metrics                  server counters + per-session stats,
//	                                 latency percentiles, trace metrics
//	POST   /sessions                 load a program ({"bench":"181.mcf"} or
//	                                 {"name":...,"source":...}); a
//	                                 speculation plan that fails validation
//	                                 rejects the session with 422
//	GET    /sessions                 list sessions
//	GET    /sessions/{id}            describe one session
//	DELETE /sessions/{id}            unload a session
//	POST   /sessions/{id}/analyze    batch loop analysis
//	                                 ({"scheme":"scaf","loops":[...],
//	                                 "deadline_ms":100})
//	POST   /sessions/{id}/query      one dependence query
//	POST   /sessions/{id}/observe    report misspeculations seen in
//	                                 production ({"violations":[{"assertion":
//	                                 ...}]}); quarantines them, invalidates
//	                                 predicated answers, re-resolves under
//	                                 the degraded plan
//	POST   /sessions/{id}/execute    run the program under the speculative-
//	                                 parallel runtime ({"scheme":"scaf",
//	                                 "workers":4}); assertions it disproves
//	                                 are quarantined as an observe would
//
// With -fleet-self the instance is a fleet backend behind scaf-router:
// it keeps a cache shard and mounts /fleet/segment and /fleet/restore,
// which the router streams a membership move's segments through.
// Backends never talk to each other; the router carries each session's
// recovery events to the session's copies on the other backends.
//
// SIGINT/SIGTERM starts a graceful drain: listeners stop accepting, new
// requests get 503, and in-flight queries run to completion (bounded by
// -drain).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"scaf/internal/server"
)

func main() {
	addr := flag.String("addr", ":8347", "listen address")
	workers := flag.Int("workers", 4, "concurrent analysis requests")
	queue := flag.Int("queue", 16, "max requests waiting for a worker (beyond: 429)")
	deadline := flag.Duration("deadline", 0, "default per-request deadline (0: unbounded)")
	preload := flag.String("preload", "", "comma-separated embedded benchmarks to load as sessions at startup")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	fleetSelf := flag.String("fleet-self", "", "fleet node ID; empty disables fleet mode")
	fleetSalt := flag.String("fleet-salt", "", "deployment salt folded into every fleet cache key")
	cacheDir := flag.String("cache-dir", "", "directory for cache snapshots and the revoked journal; boots warm, snapshots on drain")
	snapEvery := flag.Duration("snapshot-every", 0, "also snapshot the cache shard on this period (0: only on drain)")
	cacheBytes := flag.Int64("cache-bytes", 0, "byte budget of the fleet cache shard, past which it evicts (0: 8 MiB)")
	flag.Parse()

	cfg := server.Config{
		Workers:         *workers,
		MaxQueue:        *queue,
		DefaultDeadline: *deadline,
	}
	if *fleetSelf != "" {
		cfg.Fleet = &server.FleetConfig{Self: *fleetSelf, Salt: *fleetSalt}
	}
	if *cacheDir != "" {
		// The server degrades to memory-only on a bad directory; the CLI
		// fails loudly instead, since the operator asked for durability.
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			log.Fatalf("scaf-serve: -cache-dir: %v", err)
		}
		if cfg.Fleet == nil {
			// Persistence rides on the cache tier; a standalone instance
			// gets a fleet-of-one.
			cfg.Fleet = &server.FleetConfig{Self: "solo"}
		}
		cfg.Fleet.CacheDir = *cacheDir
		cfg.Fleet.SnapshotEvery = *snapEvery
	}
	if cfg.Fleet != nil {
		cfg.Fleet.CacheBytes = *cacheBytes
	}

	srv := server.New(cfg)
	if st := srv.PersistStats(); st != nil {
		log.Printf("scaf-serve: cache dir %s: %d entries loaded warm, %d rejected", *cacheDir, st.Loaded, st.Rejected)
	}
	if cfg.Fleet != nil {
		log.Printf("scaf-serve: fleet node %s", cfg.Fleet.Self)
	}
	if *preload != "" {
		for _, name := range strings.Split(*preload, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			info, err := srv.Preload(name)
			if err != nil {
				log.Fatalf("scaf-serve: preload %s: %v", name, err)
			}
			log.Printf("scaf-serve: session %s: %s (%d hot loops)", info.ID, info.Name, len(info.HotLoops))
		}
	}

	hs := server.NewHTTPServer(*addr, srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("scaf-serve: listening on %s (%d workers, queue %d)", *addr, *workers, *queue)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("scaf-serve: %v", err)
	case sig := <-sigc:
		log.Printf("scaf-serve: %v: draining (budget %s)", sig, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "scaf-serve: http shutdown: %v\n", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "scaf-serve: %v\n", err)
		os.Exit(1)
	}
	log.Printf("scaf-serve: drained cleanly")
}
