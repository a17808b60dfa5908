package main

// The in-process fleet: a hash-routing server.Router in front of two
// fleet-peered server.Server backends over loopback. This is one more
// copy of the loopback bootstrapper the oracle and the load generator
// each keep; it lives in this one file so a shared harness can replace
// it later.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"time"

	"scaf/internal/server"
)

var backendIDs = []string{"b0", "b1"}

type inprocFleet struct {
	url      string // the router's base URL
	router   *server.Router
	backends []*server.Server
	servers  []*http.Server
	// metricsReads counts the router /metrics reads counters made.
	metricsReads int64
}

// bootFleet starts the router and both backends. With a non-empty dir
// the fleet is durable: the router and each backend keep a cache
// directory under it. With a tracer, every handler is wrapped so each
// request it serves leaves a span.
func bootFleet(tr *Tracer, dir string) (*inprocFleet, error) {
	listeners := make([]net.Listener, len(backendIDs)+1) // backends, then the router
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
	urls := map[string]string{}
	for i, id := range backendIDs {
		urls[id] = "http://" + listeners[i].Addr().String()
	}
	fl := &inprocFleet{url: "http://" + listeners[len(backendIDs)].Addr().String()}
	for i, id := range backendIDs {
		peers := map[string]string{}
		for pid, u := range urls {
			if pid != id {
				peers[pid] = u
			}
		}
		fc := &server.FleetConfig{Self: id, Peers: peers, Timeout: 5 * time.Second, AutoFlush: 20 * time.Millisecond}
		if dir != "" {
			fc.CacheDir = filepath.Join(dir, id)
		}
		// The daemon's default worker and queue sizes: with two closed-loop
		// clients and a per-loop analyze fan-out, nothing is shed.
		srv := server.New(server.Config{Fleet: fc})
		fl.backends = append(fl.backends, srv)
		fl.serve(listeners[i], wrapHandler(tr, id, srv.Handler()))
	}
	rc := server.RouterConfig{Backends: urls, Route: "hash"}
	if dir != "" {
		rc.CacheDir = filepath.Join(dir, "router")
	}
	fl.router = server.NewRouter(rc)
	fl.serve(listeners[len(backendIDs)], wrapHandler(tr, "router", fl.router.Handler()))
	return fl, nil
}

func (fl *inprocFleet) serve(l net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h}
	fl.servers = append(fl.servers, hs)
	go hs.Serve(l) // returns ErrServerClosed once close shuts hs down
}

// close stops the fleet and waits for every server to finish. Client
// pools close first: spare pooled connections read as new server-side,
// and Shutdown only reaps those after a five-second grace.
func (fl *inprocFleet) close(clients ...*http.Client) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	http.DefaultClient.CloseIdleConnections() // the router's backend client
	fl.router.Close()
	var first error
	for _, srv := range fl.backends {
		if err := srv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	for _, hs := range fl.servers {
		if err := hs.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// metricsOf reads one handler's /metrics in process, without the network,
// so reading it adds no request to any counter the benchmark compares.
func metricsOf(h http.Handler, into any) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d", rec.Code)
	}
	return json.Unmarshal(rec.Body.Bytes(), into)
}

// fleetCounters are the counters the fleet workloads difference over
// their timed phase.
type fleetCounters struct {
	queriesServed, loopsServed, coalesceHits, fleetLoopHits, moduleEvals int64
	localHits, remoteHits, misses                                        int64
	journalRecords, snapshotSaves                                        int64
	proxied                                                              int64
}

func (fl *inprocFleet) counters() (fleetCounters, error) {
	var c fleetCounters
	for _, srv := range fl.backends {
		var m server.MetricsResponse
		if err := metricsOf(srv.Handler(), &m); err != nil {
			return c, err
		}
		c.queriesServed += m.Server.QueriesServed
		c.loopsServed += m.Server.LoopsServed
		c.coalesceHits += m.Server.CoalesceHits
		c.fleetLoopHits += m.Server.FleetLoopHits
		for _, sm := range m.Sessions {
			c.moduleEvals += sm.Stats.ModuleEvals
		}
		ts := srv.Fleet().Stats()
		c.localHits += ts.LocalHits
		c.remoteHits += ts.RemoteHits
		c.misses += ts.Misses
		if ps := srv.PersistStats(); ps != nil {
			c.journalRecords += ps.JournalRecords
			c.snapshotSaves += ps.Saves
		}
	}
	// The router's /metrics proxies one GET /metrics to each backend and
	// counts those too; take every such read so far back out.
	var rm server.RouterMetrics
	if err := metricsOf(fl.router.Handler(), &rm); err != nil {
		return c, err
	}
	fl.metricsReads++
	c.proxied = rm.Router.Proxied - fl.metricsReads*int64(len(fl.backends))
	return c, nil
}

func (c fleetCounters) minus(o fleetCounters) fleetCounters {
	return fleetCounters{
		queriesServed:  c.queriesServed - o.queriesServed,
		loopsServed:    c.loopsServed - o.loopsServed,
		coalesceHits:   c.coalesceHits - o.coalesceHits,
		fleetLoopHits:  c.fleetLoopHits - o.fleetLoopHits,
		moduleEvals:    c.moduleEvals - o.moduleEvals,
		localHits:      c.localHits - o.localHits,
		remoteHits:     c.remoteHits - o.remoteHits,
		misses:         c.misses - o.misses,
		journalRecords: c.journalRecords - o.journalRecords,
		snapshotSaves:  c.snapshotSaves - o.snapshotSaves,
		proxied:        c.proxied - o.proxied,
	}
}

// reqInfo classifies one request for span linking: its kind, session and
// routing key. The router places a query by its full key and an analyze
// loop by session and scheme, and it broadcasts creates whose only
// identity before the reply is the program name in the body.
func reqInfo(r *http.Request, body []byte) (kind, session, key string) {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case parts[0] == "fleet":
		return "fleet", "", r.URL.Path
	case parts[0] == "metrics":
		return "metrics", "", ""
	case parts[0] != "sessions":
		return "other", "", r.URL.Path
	case len(parts) == 1 && r.Method == http.MethodPost:
		var req server.CreateSessionRequest
		_ = json.Unmarshal(body, &req) // malformed bodies link by path only
		return "create", "", req.Name + req.Bench
	case len(parts) == 2 && r.Method == http.MethodDelete:
		return "delete", parts[1], ""
	case len(parts) == 3 && parts[2] == "query":
		var req server.QueryRequest
		_ = json.Unmarshal(body, &req)
		return "query", parts[1], strings.Join([]string{req.Scheme, req.Loop, req.I1, req.I2, req.Rel}, "|")
	case len(parts) == 3 && parts[2] == "analyze":
		var req server.AnalyzeRequest
		_ = json.Unmarshal(body, &req)
		return "analyze", parts[1], req.Scheme
	}
	return "other", "", r.URL.Path
}

// wrapHandler times every request h serves as a span named
// "<node>.<kind>". It is applied only to traced runs, so untraced runs
// serve through the bare handlers.
func wrapHandler(tr *Tracer, node string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var body []byte
		if r.Body != nil {
			b, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
				return
			}
			body = b
			r.Body = io.NopCloser(bytes.NewReader(b))
		}
		kind, session, key := reqInfo(r, body)
		h.ServeHTTP(w, r)
		tr.add(Span{
			Name: node + "." + kind, Start: tr.since(start), End: tr.since(time.Now()),
			Req: r.Header.Get("X-Request-Id"), Session: session, Key: key, Node: node,
		})
	})
}
