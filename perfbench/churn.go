package main

// The fleet-churn workload: the fleet-warm topology made durable (the
// router and both backends keep cache directories), driven by session
// lifecycles on freshly generated programs. Each client cycle creates a
// session for a new mcgen program with the oracle's hot-loop thresholds,
// analyzes it under each scheme, asks eight queries and deletes it. This
// puts writes beside reads: every create is a router broadcast,
// serialized by the router's mutation lock, and a full session build on
// both backends (compile, profile, plan, validate, pool warm-up). Caches
// never warm, so cold core work sits behind HTTP.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"scaf"
	"scaf/internal/loadgen"
	"scaf/internal/mcgen"
	"scaf/internal/oracle"
	"scaf/internal/server"
)

// queriesPerCycle is how many /query requests each cycle sends.
const queriesPerCycle = 8

// churnSample is how many cycles a fresh single instance re-answers.
const churnSample = 16

// replayed is how many created sources a traced run replays through the
// library layer by layer. The sources are seeded random programs, so the
// first ones are a sample of all; replaying every one took about 100 ms
// each (ten collected-heap interpreter runs), which would push a traced
// run past three minutes on a slowed host.
const replayed = 128

// cycleOut is what one cycle measured and, for sampled cycles, the
// payloads a fresh instance must reproduce.
type cycleOut struct {
	create, del time.Duration
	analyze     []time.Duration
	queries     []time.Duration
	sid         string
	loops       int
	// Sampled cycles only.
	results  [3][]byte
	queryReq [][]byte
	queryAns [][]byte
}

func runChurn(c runConfig) (*report, error) {
	rep := newReport()
	// About three quarters of --seconds on 2 vCPUs.
	cycles := 75 * c.seconds
	rng := rand.New(rand.NewSource(c.seed))
	seeds := make([]int64, cycles)
	sources := make([]string, cycles)
	bodies := make([][]byte, cycles)
	hot := oracle.FastConfig().HotLoops
	wireHot := &server.WireHotLoopParams{MinWeightFrac: hot.MinWeightFrac, MinAvgIters: hot.MinAvgIters}
	for i := range seeds {
		seeds[i] = rng.Int63()
		sources[i] = mcgen.New(seeds[i]).Program()
		bodies[i] = wireJSON(server.CreateSessionRequest{Name: fmt.Sprintf("gen%d", i), Source: sources[i], HotLoops: wireHot})
	}
	sampled := map[int]bool{}
	for _, i := range rng.Perm(cycles)[:min(churnSample, cycles)] {
		sampled[i] = true
	}
	rep.note("inputs cycles=%d mcgen_seeds=%d..%d hot_loops=%+v sampled=%d clients=%d",
		cycles, seeds[0], seeds[len(seeds)-1], hot, len(sampled), clients)

	// Fresh cache directories for every pass: a fleet boots warm from
	// what an earlier fleet left there.
	dir, err := os.MkdirTemp(c.work, "churn-")
	if err != nil {
		return nil, err
	}
	// Set-up boots the durable fleet and runs one lifecycle of a fixed
	// program, so first connections, the first session build and pool
	// warm-up land in set-up, not in the first timed cycle.
	warmup := wireJSON(server.CreateSessionRequest{Name: "warmup", Source: loadgen.DefaultSource, HotLoops: wireHot})
	var setups samples
	var fl *inprocFleet
	var cl *client
	var warmOut cycleOut
	for round := 0; round < setupRounds; round++ {
		if fl != nil {
			if err := fl.close(cl.hc); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if fl, err = bootFleet(c.tr, filepath.Join(dir, fmt.Sprintf("fleet%d", round))); err != nil {
			return nil, err
		}
		cl = newClient(fl.url, c.tr)
		warmOut = cycleOut{}
		fails := churnCycle(cl, c.seed, -1, warmup, false, &warmOut)
		setups = append(setups, time.Since(t0))
		rep.attempted += int64(warmOut.requests())
		for _, f := range fails {
			rep.fail("set-up cycle: %s", f)
		}
	}

	runtime.GC()
	before, err := fl.counters()
	if err != nil {
		return nil, err
	}
	from := c.tr.since(time.Now())
	outs := make([]cycleOut, cycles)
	fails := make([][]string, cycles)
	t0 := time.Now()
	closedLoop(cycles, func(i int) {
		fails[i] = churnCycle(cl, c.seed, i, bodies[i], sampled[i], &outs[i])
	})
	wall := time.Since(t0)
	after, err := fl.counters()
	if err != nil {
		return nil, err
	}
	d := after.minus(before)

	var creates, analyzes, queries samples
	sent := map[string]int64{}
	for i, o := range outs {
		if o.create > 0 {
			creates = append(creates, o.create)
			sent["create"]++
		}
		if o.del > 0 {
			sent["delete"]++
		}
		analyzes = append(analyzes, o.analyze...)
		queries = append(queries, o.queries...)
		sent["analyze"] += int64(len(o.analyze))
		sent["analyze_loops"] += int64(len(o.analyze) * o.loops)
		sent["query"] += int64(len(o.queries))
		rep.attempted += int64(o.requests())
		for _, f := range fails[i] {
			rep.fail("cycle %d: %s", i, f)
		}
	}
	requests := sent["create"] + sent["delete"] + sent["analyze"] + sent["query"]
	rep.counts["timed.queries_served"] = d.queriesServed
	rep.counts["timed.loops_served"] = d.loopsServed
	if len(creates) == 0 || len(analyzes) == 0 || len(queries) == 0 {
		return nil, fmt.Errorf("fleet-churn measured nothing: %d failures, first %v", rep.failed, rep.failures)
	}

	rep.e2e["setup_s"] = setups.median().Seconds()
	rep.e2e["create_ms"] = ms(creates.median())
	ct, ctl := creates.tail()
	rep.e2e["create_p99_ms"] = ms(ct)
	rep.e2e["analyze_ms"] = ms(analyzes.median())
	at, atl := analyzes.tail()
	rep.e2e["analyze_p99_ms"] = ms(at)
	rep.e2e["query_us"] = us(queries.median())
	qt, qtl := queries.tail()
	rep.e2e["query_p99_us"] = us(qt)
	rep.e2e["ops_per_s"] = float64(requests) / wall.Seconds()
	if rep.e2e["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	rep.note("samples create=%d (tail %s) analyze=%d (tail %s) query=%d (tail %s) timed_wall_s=%.3f cycles_per_s=%.1f",
		len(creates), ctl, len(analyzes), atl, len(queries), qtl, wall.Seconds(), float64(cycles)/wall.Seconds())

	if c.tr != nil {
		// Every set-up fleet gave its warm-up session the same ID.
		loopsOf := map[string]int{warmOut.sid: warmOut.loops}
		for _, o := range outs {
			loopsOf[o.sid] = o.loops
		}
		servingLayers(rep, c.tr.snapshot(), from, d, sent, func(sid string) int { return loopsOf[sid] })
	}
	if err := fl.close(cl.hc); err != nil {
		return nil, err
	}

	// A fresh single instance must re-answer the sampled sessions byte for
	// byte.
	fresh := server.New(server.Config{Workers: 2})
	h := fresh.Handler()
	for i := range outs {
		if !sampled[i] || outs[i].results[0] == nil {
			continue
		}
		bad := reanswer(h, bodies[i], &outs[i])
		rep.check(bad == "", "cycle %d: a fresh instance answers differently: %s", i, bad)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fresh.Shutdown(ctx); err != nil {
		return nil, err
	}

	if c.tr != nil {
		ls := newLibStats()
		for i, src := range sources[:min(replayed, len(sources))] {
			if err := ls.replay(c.tr, fmt.Sprintf("gen%d", i), src, scaf.Options{HotLoops: &hot}); err != nil {
				return nil, err
			}
		}
		ls.layerMetrics(rep.layers)
	}
	return rep, nil
}

// requests is how many requests the cycle sent; a request it never got
// to (after a failed create) is not counted.
func (o *cycleOut) requests() int {
	n := len(o.analyze) + len(o.queries)
	if o.create > 0 {
		n++
	}
	if o.del > 0 {
		n++
	}
	return n
}

// churnCycle runs one session lifecycle and returns what failed.
func churnCycle(cl *client, seed int64, i int, body []byte, sample bool, out *cycleOut) []string {
	var fails []string
	st, reply, d, err := cl.do("create", http.MethodPost, "/sessions", body)
	var info server.SessionInfo
	if err == nil && st == http.StatusCreated {
		err = json.Unmarshal(reply, &info)
	}
	out.create = d
	if err != nil || st != http.StatusCreated {
		return append(fails, fmt.Sprintf("create: status %d, error %v: %.200s", st, err, reply))
	}
	out.sid, out.loops = info.ID, len(info.HotLoops)
	path := "/sessions/" + info.ID

	type pick struct {
		scheme, loop string
		q            server.WireQuery
	}
	var pool []pick
	for si, scheme := range schemes {
		st, reply, d, err := cl.do("analyze", http.MethodPost, path+"/analyze", wireJSON(server.AnalyzeRequest{Scheme: scheme.String()}))
		out.analyze = append(out.analyze, d)
		var resp struct {
			Results json.RawMessage `json:"results"`
		}
		if err == nil && st == http.StatusOK {
			err = json.Unmarshal(reply, &resp)
		}
		var results []server.WireLoopResult
		if err == nil && st == http.StatusOK {
			err = json.Unmarshal(resp.Results, &results)
		}
		if err != nil || st != http.StatusOK {
			fails = append(fails, fmt.Sprintf("analyze %s: status %d, error %v", scheme, st, err))
			continue
		}
		if sample {
			out.results[si] = resp.Results
		}
		for _, r := range results {
			for _, q := range r.Queries {
				pool = append(pool, pick{scheme.String(), r.Loop, q})
			}
		}
	}

	// The queries are drawn from the cycle's own analyze answers, so each
	// reply must repeat the analyze answer for its pair.
	qrng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	for k := 0; k < queriesPerCycle && len(pool) > 0; k++ {
		p := pool[qrng.Intn(len(pool))]
		q := p.q
		req := wireJSON(server.QueryRequest{Scheme: p.scheme, Loop: p.loop, I1: q.I1, I2: q.I2, Rel: q.Rel})
		st, reply, d, err := cl.do("query", http.MethodPost, path+"/query", req)
		out.queries = append(out.queries, d)
		if err != nil || st != http.StatusOK || !holds(reply, "query", wireJSON(q)) {
			fails = append(fails, fmt.Sprintf("query %s: status %d, error %v, answer differs from analyze: %t",
				req, st, err, err == nil && st == http.StatusOK))
			continue
		}
		if sample {
			out.queryReq = append(out.queryReq, req)
			out.queryAns = append(out.queryAns, wireJSON(q))
		}
	}

	st, _, d, err = cl.do("delete", http.MethodDelete, path, nil)
	out.del = d
	if err != nil || st != http.StatusNoContent {
		fails = append(fails, fmt.Sprintf("delete: status %d, error %v", st, err))
	}
	return fails
}

// reanswer replays one sampled cycle against a single in-process
// instance and returns how its answers differ, or "".
func reanswer(h http.Handler, body []byte, out *cycleOut) string {
	call := func(method, path string, b []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(b)))
		return rec.Code, rec.Body.Bytes()
	}
	st, reply := call(http.MethodPost, "/sessions", body)
	var info server.SessionInfo
	if st != http.StatusCreated || json.Unmarshal(reply, &info) != nil {
		return fmt.Sprintf("create: status %d", st)
	}
	path := "/sessions/" + info.ID
	defer call(http.MethodDelete, path, nil)
	for si, scheme := range schemes {
		st, reply := call(http.MethodPost, path+"/analyze", wireJSON(server.AnalyzeRequest{Scheme: scheme.String()}))
		if st != http.StatusOK || !holds(reply, "results", out.results[si]) {
			return fmt.Sprintf("analyze %s: status %d", scheme, st)
		}
	}
	for k, req := range out.queryReq {
		st, reply := call(http.MethodPost, path+"/query", req)
		if st != http.StatusOK || !holds(reply, "query", out.queryAns[k]) {
			return fmt.Sprintf("query %s: status %d", req, st)
		}
	}
	return ""
}
