package main

// The fleet-warm workload: a router in front of two fleet-peered
// backends, with every answer already cached. Set-up creates sessions
// for 129.compress, 175.vpr and 429.mcf (the cheapest internal/bench
// programs to profile) and warms every (session, scheme) analyze and
// every query pair; the timed phase is a seeded 80/20 mix of /query and
// /analyze over all three schemes. Caches answer every request, so the
// serving stack does the work (router proxy, fan-out and splice,
// handlers, admission, JSON encoding, net/http) and the core layer
// almost none.
// 175.vpr's single hot loop has 855 query pairs, so its analyze replies
// are large.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"scaf"
	"scaf/internal/bench"
	"scaf/internal/server"
)

var warmPrograms = []string{"129.compress", "175.vpr", "429.mcf"}

// libRef is one program's answers through the library path: the wire
// results of every scheme's analyze, and every query pair's request and
// answer.
type libRef struct {
	name    string
	loops   int
	results [3][]byte
	queries [3][]refQuery
}

type refQuery struct {
	req  server.QueryRequest
	want []byte
}

func libraryRef(name string) (*libRef, error) {
	sys, err := scaf.Load(name, bench.Sources[name], scaf.Options{})
	if err != nil {
		return nil, fmt.Errorf("reference load of %s: %w", name, err)
	}
	hot := sys.HotLoops()
	ref := &libRef{name: name, loops: len(hot)}
	client := sys.Client()
	for si, scheme := range schemes {
		o := sys.Orchestrator(scheme)
		var wires []server.WireLoopResult
		for _, l := range hot {
			res := client.ResolveLoop(o, l)
			wires = append(wires, server.EncodeLoopResult(res))
			for qi := range res.Queries {
				q := server.EncodeQuery(&res.Queries[qi])
				ref.queries[si] = append(ref.queries[si], refQuery{
					req:  server.QueryRequest{Scheme: scheme.String(), Loop: l.Name(), I1: q.I1, I2: q.I2, Rel: q.Rel},
					want: wireJSON(q),
				})
			}
		}
		if wires == nil {
			wires = []server.WireLoopResult{}
		}
		ref.results[si] = wireJSON(wires)
	}
	return ref, nil
}

// warmOp is one request of the timed mix.
type warmOp struct {
	analyze     bool
	sess, sc, q int
}

type opResult struct {
	d  time.Duration
	ok bool
}

func runWarm(c runConfig) (*report, error) {
	rep := newReport()
	refs := make([]*libRef, len(warmPrograms))
	for i, name := range warmPrograms {
		var err error
		if refs[i], err = libraryRef(name); err != nil {
			return nil, err
		}
	}

	// About three quarters of --seconds on 2 vCPUs.
	n := 1500 * c.seconds
	rng := rand.New(rand.NewSource(c.seed))
	ops := make([]warmOp, n)
	var sent = map[string]int64{}
	for i := range ops {
		op := warmOp{analyze: rng.Float64() >= 0.8, sess: rng.Intn(len(refs)), sc: rng.Intn(len(schemes))}
		if op.analyze {
			sent["analyze"]++
			sent["analyze_loops"] += int64(refs[op.sess].loops)
		} else {
			op.q = rng.Intn(len(refs[op.sess].queries[op.sc]))
			sent["query"]++
		}
		ops[i] = op
	}
	rep.note("inputs programs=%v requests=%d query=%d analyze=%d clients=%d", warmPrograms, n, sent["query"], sent["analyze"], clients)

	var setups, creates samples
	var fl *inprocFleet
	var cl *client
	var sids []string
	for round := 0; round < setupRounds; round++ {
		if fl != nil {
			// Tear the last round down as a client would, outside the
			// timed set-up.
			for _, sid := range sids {
				st, _, _, err := cl.do("delete", http.MethodDelete, "/sessions/"+sid, nil)
				rep.check(err == nil && st == http.StatusNoContent, "set-up delete %s: status %d, error %v", sid, st, err)
			}
			if err := fl.close(cl.hc); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if fl, err = bootFleet(c.tr, ""); err != nil {
			return nil, err
		}
		cl = newClient(fl.url, c.tr)
		sids = make([]string, len(refs))
		for i, ref := range refs {
			st, reply, d, err := cl.do("create", http.MethodPost, "/sessions", wireJSON(server.CreateSessionRequest{Bench: ref.name}))
			var info server.SessionInfo
			if err == nil && st == http.StatusCreated {
				err = json.Unmarshal(reply, &info)
			}
			if !rep.check(err == nil && st == http.StatusCreated && len(info.HotLoops) == ref.loops,
				"set-up create %s: status %d, %d hot loops, error %v", ref.name, st, len(info.HotLoops), err) {
				return nil, fmt.Errorf("set-up could not create %s", ref.name)
			}
			sids[i] = info.ID
			creates = append(creates, d)
		}
		var warmup []warmOp
		for s, ref := range refs {
			for sc := range schemes {
				warmup = append(warmup, warmOp{analyze: true, sess: s, sc: sc})
				for q := range ref.queries[sc] {
					warmup = append(warmup, warmOp{sess: s, sc: sc, q: q})
				}
			}
		}
		out := make([]opResult, len(warmup))
		closedLoop(len(warmup), func(i int) { out[i] = warmDo(cl, refs, sids, warmup[i]) })
		for i, r := range out {
			rep.check(r.ok, "set-up %s of %s failed or differs from the library", opName(warmup[i]), refs[warmup[i].sess].name)
		}
		setups = append(setups, time.Since(t0))
	}

	runtime.GC()
	before, err := fl.counters()
	if err != nil {
		return nil, err
	}
	from := c.tr.since(time.Now())
	out := make([]opResult, n)
	t0 := time.Now()
	closedLoop(n, func(i int) { out[i] = warmDo(cl, refs, sids, ops[i]) })
	wall := time.Since(t0)
	after, err := fl.counters()
	if err != nil {
		return nil, err
	}
	d := after.minus(before)

	var analyzes, queries samples
	for i, r := range out {
		if ops[i].analyze {
			analyzes = append(analyzes, r.d)
		} else {
			queries = append(queries, r.d)
		}
		rep.check(r.ok, "%s of %s failed or differs from the library", opName(ops[i]), refs[ops[i].sess].name)
	}
	rep.check(d.moduleEvals == 0, "the timed phase evaluated %d modules; the fleet was not warm", d.moduleEvals)
	rep.counts["timed.module_evals"] = d.moduleEvals
	rep.counts["timed.queries_served"] = d.queriesServed
	rep.counts["timed.loops_served"] = d.loopsServed

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
	rep.e2e["ops_per_s"] = float64(n) / wall.Seconds()
	if rep.e2e["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	rep.note("samples create=%d (tail %s) analyze=%d (tail %s) query=%d (tail %s) timed_wall_s=%.3f",
		len(creates), ctl, len(analyzes), atl, len(queries), qtl, wall.Seconds())

	if c.tr != nil {
		servingLayers(rep, c.tr.snapshot(), from, d, sent, func(sid string) int {
			for i, s := range sids {
				if s == sid {
					return refs[i].loops
				}
			}
			return 0
		})
	}
	if err := fl.close(cl.hc); err != nil {
		return nil, err
	}
	if c.tr != nil {
		ls := newLibStats()
		for _, name := range warmPrograms {
			if err := ls.replay(c.tr, name, bench.Sources[name], scaf.Options{}); err != nil {
				return nil, err
			}
		}
		ls.layerMetrics(rep.layers)
	}
	return rep, nil
}

func opName(op warmOp) string {
	if op.analyze {
		return fmt.Sprintf("analyze/%s", schemes[op.sc])
	}
	return fmt.Sprintf("query/%s #%d", schemes[op.sc], op.q)
}

// warmDo sends one request of the mix and checks its payload against the
// library reference.
func warmDo(cl *client, refs []*libRef, sids []string, op warmOp) opResult {
	ref := refs[op.sess]
	if op.analyze {
		body := wireJSON(server.AnalyzeRequest{Scheme: schemes[op.sc].String()})
		st, reply, d, err := cl.do("analyze", http.MethodPost, "/sessions/"+sids[op.sess]+"/analyze", body)
		return opResult{d: d, ok: err == nil && st == http.StatusOK && holds(reply, "results", ref.results[op.sc])}
	}
	q := ref.queries[op.sc][op.q]
	st, reply, d, err := cl.do("query", http.MethodPost, "/sessions/"+sids[op.sess]+"/query", wireJSON(q.req))
	return opResult{d: d, ok: err == nil && st == http.StatusOK && holds(reply, "query", q.want)}
}
