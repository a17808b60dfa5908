package main

// The closed-loop HTTP client the fleet workloads share, and the
// per-layer analysis of the spans a traced fleet run leaves.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the number of closed-loop client goroutines; each waits for
// its reply before it sends again, as a compiler calling the system does.
// With nproc = 2 more clients would only measure client queueing.
const clients = 2

type client struct {
	hc   *http.Client
	base string
	tr   *Tracer
	seq  atomic.Int64
}

func newClient(base string, tr *Tracer) *client {
	return &client{base: base, tr: tr, hc: &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
	}}
}

// do sends one request and reads the whole reply. The latency covers
// sending the request and reading the reply. A traced client mints a
// request ID, which the router's span wrapper picks up.
func (c *client) do(kind, method, path string, body []byte) (status int, reply []byte, d time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var id string
	if c.tr != nil {
		id = fmt.Sprintf("c%d", c.seq.Add(1))
		req.Header.Set("X-Request-Id", id)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		reply, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	t1 := time.Now()
	if c.tr != nil {
		c.tr.add(Span{Name: "client." + kind, Start: c.tr.since(t0), End: c.tr.since(t1), Req: id})
	}
	return status, reply, t1.Sub(t0), err
}

// closedLoop runs op(0..n-1) from the client goroutines, each taking the
// next index when its previous op has finished, and returns when all
// are done. The set of ops is fixed; only which goroutine runs which
// depends on timing.
func closedLoop(n int, op func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				op(i)
			}
		}()
	}
	wg.Wait()
}

// kindOf is the request kind in a fleet span's name ("router.query").
func kindOf(s *Span) string {
	_, k, _ := strings.Cut(s.Name, ".")
	return k
}

// servingLayers derives the serving stack's per-layer metrics from the
// spans of a traced fleet run and reconciles them against the counters
// the backends and the router keep. Query and analyze times come from the
// timed phase (from onwards); create, delete and peer RPC times from the
// whole run, since fleet-warm creates its sessions during set-up. d holds
// the counters' timed-phase deltas, sent the client's timed-phase
// requests by kind, and loops a session's hot-loop count, which is how
// many backend requests the router's analyze fan-out makes.
func servingLayers(rep *report, spans []Span, from int64, d fleetCounters, sent map[string]int64, loops func(session string) int) {
	var clientSpans, routerSpans, backendSpans, rpcSpans []*Span
	for i := range spans {
		s := &spans[i]
		switch {
		case strings.HasPrefix(s.Name, "client."):
			clientSpans = append(clientSpans, s)
		case s.Node == "router":
			routerSpans = append(routerSpans, s)
		case s.Node != "" && kindOf(s) == "fleet":
			rpcSpans = append(rpcSpans, s)
		case s.Node != "" && kindOf(s) != "metrics":
			backendSpans = append(backendSpans, s)
		}
	}

	var parents, children []linkable
	for _, r := range routerSpans {
		k := kindOf(r)
		capacity := 1
		switch k {
		case "analyze":
			capacity = loops(r.Session)
		case "create", "delete":
			capacity = len(backendIDs)
		}
		parents = append(parents, linkable{span: r, key: linkKey{k, r.Session, r.Key}, capacity: capacity})
	}
	for _, b := range backendSpans {
		children = append(children, linkable{span: b, key: linkKey{kindOf(b), b.Session, b.Key}})
	}
	orphans := linkByContainment(parents, children)
	for _, o := range orphans[:min(3, len(orphans))] {
		rep.note("orphan span %+v", *o)
	}
	rep.check(len(orphans) == 0, "reconcile: %d backend spans have no router span that contains them", len(orphans))

	timed := func(s *Span) bool { return s.Start >= from }
	inWindow := 0
	for _, b := range backendSpans {
		if timed(b) {
			inWindow++
		}
	}
	rep.check(int64(inWindow) == d.proxied,
		"reconcile: %d backend spans for %d proxied requests", inWindow, d.proxied)
	wantProxied := sent["query"] + sent["analyze_loops"] + int64(len(backendIDs))*(sent["create"]+sent["delete"])
	rep.check(d.proxied == wantProxied, "reconcile: router proxied %d requests, clients caused %d", d.proxied, wantProxied)
	rep.check(d.queriesServed == sent["query"], "reconcile: backends served %d queries, clients sent %d", d.queriesServed, sent["query"])
	rep.check(d.loopsServed == sent["analyze_loops"], "reconcile: backends served %d loops, clients asked %d", d.loopsServed, sent["analyze_loops"])
	rep.note("reconcile client=%v proxied=%d queries_served=%d loops_served=%d backend_spans=%d orphans=%d",
		sent, d.proxied, d.queriesServed, d.loopsServed, inWindow, len(orphans))

	// phase keeps query and analyze spans of the timed phase only.
	phase := func(s *Span) bool {
		k := kindOf(s)
		return timed(s) || (k != "query" && k != "analyze")
	}
	kids := map[int64][]interval{}
	byKind := map[string][]time.Duration{}
	for _, b := range backendSpans {
		if b.Parent != 0 {
			kids[b.Parent] = append(kids[b.Parent], interval{b.Start, b.End})
		}
		if phase(b) {
			byKind[kindOf(b)] = append(byKind[kindOf(b)], b.dur())
		}
	}
	self := map[string][]time.Duration{}
	byReq := map[string]*Span{}
	for _, r := range routerSpans {
		if phase(r) {
			self[kindOf(r)] = append(self[kindOf(r)], selfTime(interval{r.Start, r.End}, kids[r.ID]))
		}
		if r.Req != "" {
			byReq[r.Req] = r
		}
	}
	var transport []time.Duration
	for _, c := range clientSpans {
		if r := byReq[c.Req]; r != nil && timed(c) {
			transport = append(transport, c.dur()-r.dur())
		}
	}
	var rpc []time.Duration
	for _, s := range rpcSpans {
		rpc = append(rpc, s.dur())
	}

	m := rep.layers
	m["server.query_us"] = us(meanDur(byKind["query"]))
	m["server.analyze_ms"] = ms(meanDur(byKind["analyze"]))
	m["server.create_ms"] = ms(meanDur(byKind["create"]))
	m["server.delete_us"] = us(meanDur(byKind["delete"]))
	m["server.coalesce_hits"] = float64(d.coalesceHits)
	m["server.fleet_loop_hits"] = float64(d.fleetLoopHits)
	m["server.module_evals"] = float64(d.moduleEvals)
	m["router.query_self_us"] = us(meanDur(self["query"]))
	m["router.analyze_self_ms"] = ms(meanDur(self["analyze"]))
	m["router.create_self_ms"] = ms(meanDur(self["create"]))
	m["router.fanout_loops"] = float64(len(byKind["analyze"]))
	m["router.proxied"] = float64(d.proxied)
	m["fleet.rpc_us"] = us(meanDur(rpc))
	m["fleet.rpcs"] = float64(len(rpc))
	m["fleet.local_hits"] = float64(d.localHits)
	m["fleet.remote_hits"] = float64(d.remoteHits)
	m["fleet.misses"] = float64(d.misses)
	m["fleet.hit_ratio"] = 0
	if n := d.localHits + d.remoteHits + d.misses; n > 0 {
		m["fleet.hit_ratio"] = float64(d.localHits+d.remoteHits) / float64(n)
	}
	m["persist.journal_records"] = float64(d.journalRecords)
	m["persist.snapshot_saves"] = float64(d.snapshotSaves)
	m["http.client_us"] = us(meanDur(transport))
}

// wireJSON encodes v exactly as the server's writeJSON does, minus the
// trailing newline.
func wireJSON(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err) // wire types always encode
	}
	return bytes.TrimSuffix(b.Bytes(), []byte("\n"))
}

// holds reports whether a reply carries the expected payload verbatim
// under the given JSON field. The payload is a whole JSON value, so a
// match is byte equality of that field.
func holds(reply []byte, field string, want []byte) bool {
	i := bytes.Index(reply, []byte(`"`+field+`":`))
	return i >= 0 && bytes.HasPrefix(reply[i+len(field)+3:], want)
}
