package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"
)

// LoopbackFleet is a whole fleet in one process, each node on its own
// loopback listener and served through NewHTTPServer: member backends
// "b0", "b1", …, an optional spare SpareID that stays outside the
// router's member set until a live join admits it, and a Router in front
// of the members. The backends know nothing of each other.
// The package's tests, the oracle and the load generator boot their
// fleets through it, so the wiring and the shutdown order live in one
// place.
type LoopbackFleet struct {
	// URL is the router's base URL.
	URL    string
	Router *Router

	ids      []string // the members in order, then the spare
	routerHS *http.Server

	mu       sync.Mutex // guards each backend's srv and hs
	backends map[string]*loopbackBackend
}

// loopbackBackend is one backend node. Its address is reserved at boot
// and survives a Stop/Restart cycle.
type loopbackBackend struct {
	addr string
	cfg  Config
	srv  *Server // nil while stopped
	hs   *http.Server
}

// SpareID names a LoopbackFleet's spare backend.
const SpareID = "j0"

// StartLoopbackFleet boots members backends plus, with spare, the spare
// backend. Each backend runs cfg with its Fleet replaced by the fleet's
// wiring, which keeps only cfg.Fleet's CacheBytes; with a non-empty
// dir, backend id keeps its cache directory at dir/id, so a fleet booted
// again on the same dir warms from the snapshots the previous Close
// wrote. rc configures the router, whose
// Backends are set to the members.
func StartLoopbackFleet(members int, spare bool, dir string, cfg Config, rc RouterConfig) (*LoopbackFleet, error) {
	ids := make([]string, members, members+1)
	for i := range ids {
		ids[i] = fmt.Sprintf("b%d", i)
	}
	if spare {
		ids = append(ids, SpareID)
	}
	listeners := make([]net.Listener, len(ids)+1) // the backends, then the router
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, open := range listeners[:i] {
				open.Close()
			}
			return nil, fmt.Errorf("reserving a loopback port: %w", err)
		}
		listeners[i] = l
	}

	f := &LoopbackFleet{ids: ids, backends: map[string]*loopbackBackend{}}
	memberURLs := map[string]string{}
	for i, id := range ids {
		b := &loopbackBackend{addr: listeners[i].Addr().String(), cfg: cfg}
		f.backends[id] = b
		if i < members {
			memberURLs[id] = f.BackendURL(id)
		}
		b.cfg.Fleet = &FleetConfig{Self: id}
		if cfg.Fleet != nil {
			b.cfg.Fleet.CacheBytes = cfg.Fleet.CacheBytes
		}
		if dir != "" {
			b.cfg.Fleet.CacheDir = filepath.Join(dir, id)
		}
		b.serve(listeners[i])
	}

	rc.Backends = memberURLs
	f.Router = NewRouter(rc)
	rl := listeners[len(ids)]
	f.URL = "http://" + rl.Addr().String()
	f.routerHS = NewHTTPServer(rl.Addr().String(), f.Router.Handler())
	go f.routerHS.Serve(rl) // returns once Close shuts it down
	return f, nil
}

func (b *loopbackBackend) serve(l net.Listener) {
	b.srv = New(b.cfg)
	b.hs = NewHTTPServer(b.addr, b.srv.Handler())
	go b.hs.Serve(l) // returns once the backend is stopped or shut down
}

// IDs lists the backends: the members in order, then the spare.
func (f *LoopbackFleet) IDs() []string { return append([]string(nil), f.ids...) }

// BackendURL returns backend id's base URL; it survives a restart.
func (f *LoopbackFleet) BackendURL(id string) string { return "http://" + f.backends[id].addr }

// Backend returns backend id's running server, nil while it is stopped.
func (f *LoopbackFleet) Backend(id string) *Server {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.backends[id].srv
}

// Stop crash-stops backend id, as if its process died: its listener and
// connections close at once, and nothing is drained or snapshotted.
func (f *LoopbackFleet) Stop(id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b := f.backends[id]
	if b.srv == nil {
		return
	}
	b.hs.Close()
	b.srv, b.hs = nil, nil
}

// Restart boots a fresh server for stopped backend id on its old
// address, the way a restarted process comes back: empty, or warm from
// its cache directory.
func (f *LoopbackFleet) Restart(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	b := f.backends[id]
	if b.srv != nil {
		return fmt.Errorf("backend %s is running", id)
	}
	l, err := net.Listen("tcp", b.addr)
	if err != nil {
		return fmt.Errorf("backend %s: rebinding %s: %w", id, b.addr, err)
	}
	b.serve(l)
	return nil
}

// Metrics reads running backend id's /metrics document in process.
func (f *LoopbackFleet) Metrics(id string) (MetricsResponse, error) {
	var m MetricsResponse
	srv := f.Backend(id)
	if srv == nil {
		return m, fmt.Errorf("backend %s is stopped", id)
	}
	return m, readMetrics(srv.Handler(), &m)
}

// RouterMetrics reads the router's /metrics document in process.
func (f *LoopbackFleet) RouterMetrics() (RouterMetrics, error) {
	var m RouterMetrics
	return m, readMetrics(f.Router.Handler(), &m)
}

func readMetrics(h http.Handler, into any) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	return json.Unmarshal(rec.Body.Bytes(), into)
}

// Close shuts the fleet down. Client pools close first:
// http.Server.Shutdown reaps a connection that never carried a request
// (StateNew, which a spare pooled connection is on its server) only
// after a five-second grace. The router owns the one transport to the
// backends and drops it in Router.Close, before any HTTP server shuts
// down; callers' clients on the default transport (the package tests'
// do helper uses http.DefaultClient) are dropped here first. Then the
// router stops (and saves its journal if it persists), each running
// backend drains (and snapshots, if it persists), and the HTTP servers
// shut down. The router's goes last and outside the lock, because a
// router request still in flight may run a move hook that calls Stop.
func (f *LoopbackFleet) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	http.DefaultClient.CloseIdleConnections()
	f.Router.Close()
	var errs []error
	f.mu.Lock()
	for _, id := range f.ids {
		if b := f.backends[id]; b.srv != nil {
			errs = append(errs, b.srv.Shutdown(ctx))
		}
	}
	for _, id := range f.ids {
		if b := f.backends[id]; b.hs != nil {
			errs = append(errs, b.hs.Shutdown(ctx))
		}
	}
	f.mu.Unlock()
	errs = append(errs, f.routerHS.Shutdown(ctx))
	return errors.Join(errs...)
}
