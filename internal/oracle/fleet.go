package oracle

// The fleet pass is the serving-tier analogue of checkServerDrift: where
// that check proves one daemon's HTTP answers equal the library's, this
// one proves a sharded fleet — two backends, each with its own cache
// shard, behind a consistent-hash scaf-router — is indistinguishable, at the byte level,
// from the seed's cold reference instance. Every gold is replayed
// verbatim: the create envelope (broadcast consensus), the analyze
// envelopes (the router splices per-shard fan-out results back into one
// batch), and every dependence query, first serially and then under
// concurrent fire, where shard hits and coalescing are actually
// exercised. The elastic pass continues on the same fleet.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"scaf/internal/fleet"
	"scaf/internal/server"
)

// checkFleetDrift boots the loopback fleet (with the spare when the
// elastic pass runs), replays the gold set through its router, and
// reports any byte divergence. The serial replay runs for either pass;
// its findings are drift-fleet, or drift-elastic when only the elastic
// pass is on.
func checkFleetDrift(cfg Config, rep *Report, gs *goldSet) {
	kind := KindDriftFleet
	if !cfg.Fleet {
		kind = KindDriftElastic
	}
	fl, err := server.StartLoopbackFleet(2, cfg.Elastic, "",
		server.Config{Workers: 2, Fleet: &server.FleetConfig{CacheBytes: cfg.CacheBytes}},
		server.RouterConfig{DrainTimeout: 15 * time.Second})
	if err != nil {
		rep.violate(Violation{Kind: kind, Detail: fmt.Sprintf("fleet boot: %v", err)})
		return
	}
	defer fl.Close()
	evs := newEvictionLog()
	for _, id := range fl.IDs() {
		evs.watch(id, fl.Backend(id).Fleet().Local())
	}
	defer func() { rep.Evictions += evs.count() }()
	c := routerClient{base: fl.URL, hc: &http.Client{Timeout: 30 * time.Second, Transport: fleet.NewTransport(nil)}}
	// The client's pool is its own, so it closes before the fleet's
	// servers shut down (deferred calls run last first).
	defer c.hc.CloseIdleConnections()

	st, body := c.do("POST", "/sessions", gs.create)
	if st != gs.createStatus || !bytes.Equal(body, gs.createReply) {
		rep.violate(Violation{Kind: kind,
			Detail: fmt.Sprintf("session create diverges: single %d %s, fleet %d %s",
				gs.createStatus, gs.createReply, st, body)})
		return
	}
	if gs.createStatus != http.StatusCreated {
		if cfg.Fleet {
			rep.violate(Violation{Kind: KindDriftFleet,
				Detail: fmt.Sprintf("session load failed on both paths: status %d: %s", st, body)})
		}
		return
	}

	// Serial phase: every gold, in the order the reference served it.
	var served []gold // golds the fleet matched with a 200
	for _, g := range gs.golds {
		st, body := c.do("POST", g.path, g.body)
		if st != g.status || !bytes.Equal(body, g.want) {
			what := "analyze envelope"
			if g.query {
				what = "query " + string(g.body)
			}
			rep.violate(Violation{Kind: kind, Scheme: g.scheme.String(), Loop: g.loop,
				Detail: fmt.Sprintf("%s diverges:\n  single: %d %s\n  fleet:  %d %s", what, g.status, g.want, st, body)})
			continue
		}
		if st != http.StatusOK {
			if !g.query && cfg.Fleet {
				rep.violate(Violation{Kind: KindDriftFleet, Scheme: g.scheme.String(),
					Detail: fmt.Sprintf("analyze failed on both paths: status %d: %s", st, body)})
			}
			continue
		}
		served = append(served, g)
	}

	if cfg.Fleet {
		// Parallel phase: the query golds must survive concurrent fire
		// through the router, where shard fan-out, shared-cache hits and
		// query coalescing all interleave. Coalesce markers live in the
		// response envelope's optional fields, so a coalesced hit that
		// changed the bytes would be caught here.
		var queries []gold
		for _, g := range served {
			if g.query {
				queries = append(queries, g)
			}
		}
		fire(rep, queries, func(g gold) *Violation {
			st, body := c.do("POST", g.path, g.body)
			if st == http.StatusOK && goldEqual(g, body) {
				return nil
			}
			return &Violation{Kind: KindDriftFleet, Scheme: g.scheme.String(), Loop: g.loop,
				Detail: fmt.Sprintf("parallel query diverges from serial gold:\n  serial:   %s\n  parallel: %d %s",
					g.want, st, body)}
		})
	}
	if cfg.Elastic {
		checkElasticDrift(cfg, rep, fl, evs, c, gs.info, served)
	}
}

// evictionLog counts, per shard and key, the entries the budget evicts
// from the shards it watches, so that a warm-hit check demands a hit
// only of an entry still resident when its loop replays, and sums them
// for Report.Evictions.
type evictionLog struct {
	mu     sync.Mutex
	counts map[string]map[string]int // shard -> key -> evictions
	n      int64
}

func newEvictionLog() *evictionLog { return &evictionLog{counts: map[string]map[string]int{}} }

// watch counts c's evictions under the name shard from now on; call it
// before traffic.
func (l *evictionLog) watch(shard string, c *fleet.Cache) {
	l.mu.Lock()
	l.counts[shard] = map[string]int{}
	l.mu.Unlock()
	c.SetEvictHook(func(key string) {
		l.mu.Lock()
		l.counts[shard][key]++
		l.n++
		l.mu.Unlock()
	})
}

func (l *evictionLog) count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// evictions returns how often shard has evicted key.
func (l *evictionLog) evictions(shard, key string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[shard][key]
}

// fire runs check on every gold from eight concurrent clients and
// reports each finding it returns.
func fire(rep *Report, golds []gold, check func(gold) *Violation) {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		sem = make(chan struct{}, 8)
	)
	for _, g := range golds {
		wg.Add(1)
		go func(g gold) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if v := check(g); v != nil {
				mu.Lock()
				rep.violate(*v)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
}

// stripCoalesce removes the scheduling-dependent "coalesced" marker from a
// query response before comparison: whether two concurrent identical
// queries share one resolution is timing, not semantics. The query payload
// itself is compared verbatim.
func stripCoalesce(body []byte) []byte {
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return body
	}
	resp.Coalesced = false
	out, err := json.Marshal(resp)
	if err != nil {
		return body
	}
	return out
}

// routerClient drives a loopback fleet's router over the network.
type routerClient struct {
	base string
	hc   *http.Client
}

// send issues one request and returns the status, the Retry-After
// header and the body; a transport failure reads as status 0 with the
// error as the body.
func (c routerClient) send(method, path string, body []byte) (int, string, []byte) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", []byte(err.Error())
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, "", []byte(err.Error())
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", []byte(err.Error())
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), b
}

func (c routerClient) do(method, path string, body []byte) (int, []byte) {
	st, _, b := c.send(method, path, body)
	return st, b
}
