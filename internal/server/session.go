package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scaf"
	"scaf/internal/bench"
	"scaf/internal/cfg"
	"scaf/internal/core"
	"scaf/internal/fleet"
	"scaf/internal/ir"
	"scaf/internal/pdg"
	"scaf/internal/profile"
	"scaf/internal/recovery"
	"scaf/internal/runtime"
	"scaf/internal/trace"
)

// httpError is a structured error carried up to the HTTP layer.
type httpError struct {
	status     int
	detail     ErrorDetail
	retryAfter string // Retry-After header value, when load shedding
}

func errBadRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest,
		detail: ErrorDetail{Code: "bad_request", Message: fmt.Sprintf(format, args...)}}
}

func errNotFound(format string, args ...any) *httpError {
	return &httpError{status: http.StatusNotFound,
		detail: ErrorDetail{Code: "not_found", Message: fmt.Sprintf(format, args...)}}
}

// parseScheme maps a wire scheme name ("caf"|"confluence"|"scaf",
// case-insensitive; empty means scaf) to its scaf.Scheme.
func parseScheme(s string) (scaf.Scheme, *httpError) {
	switch strings.ToLower(s) {
	case "caf":
		return scaf.SchemeCAF, nil
	case "confluence":
		return scaf.SchemeConfluence, nil
	case "scaf", "":
		return scaf.SchemeSCAF, nil
	}
	return 0, errBadRequest("unknown scheme %q (want caf|confluence|scaf)", s)
}

// latReservoir caps the per-session latency sample reservoir reported by
// /metrics. Overflow is counted, not stored.
const latReservoir = 1 << 14

// pooledOrch is one warm orchestrator of a session's per-scheme pool,
// together with its tracer. Each checkin takes and zeroes the
// orchestrator's counters, so what they hold at a checkin is the work of
// exactly one request.
type pooledOrch struct {
	o   *core.Orchestrator
	col *trace.Collector
}

// orchPool hands out warm orchestrators for one (session, scheme) pair.
// Orchestrators are not safe for concurrent use, so a checkout confers
// exclusive ownership until checkin. The pool mints lazily; concurrency
// is bounded by the server's admission control, not by the pool.
type orchPool struct {
	mu   sync.Mutex
	free []*pooledOrch
	mint func() *pooledOrch
}

func (p *orchPool) get() *pooledOrch {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		po := p.free[n-1]
		p.free = p.free[:n-1]
		return po
	}
	return p.mint()
}

func (p *orchPool) put(po *pooledOrch) {
	p.mu.Lock()
	p.free = append(p.free, po)
	p.mu.Unlock()
}

// session is one loaded, profiled program with a validated speculation
// plan and warm per-scheme orchestrator pools.
type session struct {
	id     string
	name   string
	sys    *scaf.System
	client *pdg.Client
	hot    []*cfg.Loop
	loops  map[string]*cfg.Loop
	instrs map[string]*ir.Instr
	plan   *PlanInfo

	pools map[scaf.Scheme]*orchPool
	// caches indexes the per-scheme SharedCaches for recovery invalidation.
	caches map[scaf.Scheme]*core.SharedCache
	// quarantine accumulates the session's misspeculation state: it is the
	// Revoker of every per-scheme SharedCache and the option filter wrapped
	// around every module, so a violated assertion reported once is never
	// served from and never re-offered anywhere in the session.
	quarantine *recovery.Quarantine
	// epoch counts recovery events (observe reports, module panics). The
	// HTTP layer folds it into coalescing keys so a request arriving after
	// a recovery never joins a computation started before it.
	epoch atomic.Int64

	// fleet is the instance's fleet cache tier (nil outside fleet mode);
	// fleetDigest scopes every fleet key to sessions holding this exact
	// program (see fleet.go).
	fleet       *fleet.Tier
	fleetDigest string
	// fpMu guards the per-epoch quarantine-fingerprint cache.
	fpMu    sync.Mutex
	fpEpoch int64
	fpVal   string

	// mu guards the cumulative accounting below, folded in at checkin.
	mu         sync.Mutex
	stats      core.Stats     // counters only: latencies go to the reservoir
	metrics    *trace.Metrics // nil when tracing is disabled
	latNS      []int64
	latWork    []int64
	latDropped int64
}

// newSession compiles, profiles, plan-validates and warms one session.
// tier, when non-nil, joins the session to the fleet cache (see fleet.go).
func newSession(id string, req *CreateSessionRequest, scfg Config, tier *fleet.Tier) (*session, *httpError) {
	name, src := req.Name, req.Source
	switch {
	case req.Bench != "":
		if src != "" {
			return nil, errBadRequest("bench and source are mutually exclusive")
		}
		var ok bool
		src, ok = bench.Sources[req.Bench]
		if !ok {
			return nil, errNotFound("unknown benchmark %q", req.Bench)
		}
		name = req.Bench
	case src == "":
		return nil, errBadRequest("session needs bench or source")
	}
	if name == "" {
		name = id
	}

	var loadOpts scaf.Options
	if req.HotLoops != nil {
		if req.HotLoops.MinWeightFrac <= 0 || req.HotLoops.MinAvgIters <= 0 {
			return nil, errBadRequest("hot_loops thresholds must be positive")
		}
		loadOpts.HotLoops = &profile.HotLoopParams{
			MinWeightFrac: req.HotLoops.MinWeightFrac,
			MinAvgIters:   req.HotLoops.MinAvgIters,
		}
	}
	sys, err := scaf.Load(name, src, loadOpts)
	if err != nil {
		return nil, &httpError{status: http.StatusUnprocessableEntity,
			detail: ErrorDetail{Code: "load_failed", Message: err.Error()}}
	}

	sess := &session{
		id:     id,
		name:   name,
		sys:    sys,
		client: sys.Client(),
		hot:    sys.HotLoops(),
		loops:  map[string]*cfg.Loop{},
		instrs: map[string]*ir.Instr{},
		pools:  map[scaf.Scheme]*orchPool{},
		caches: map[scaf.Scheme]*core.SharedCache{},

		quarantine: recovery.New(),
	}
	if tier != nil {
		sess.fleet = tier
		salt := ""
		if scfg.Fleet != nil {
			salt = scfg.Fleet.Salt
		}
		sess.fleetDigest = fleetDigest(req, src, salt)
	}
	for _, l := range sess.hot {
		sess.loops[l.Name()] = l
	}
	for _, fn := range sys.Mod.Funcs {
		fn.Instrs(func(in *ir.Instr) { sess.instrs[InstrRef(in)] = in })
	}
	if req.Trace == nil || *req.Trace {
		sess.metrics = trace.NewMetrics()
	}

	// Speculation plan: build the global validation plan over the hot
	// loops and re-run the program with its checks (plus any
	// client-supplied assertions) enforced. A violating plan is rejected —
	// never served.
	var asserts []core.Assertion
	switch req.Plan {
	case "", "validate":
		var plans []runtime.LoopPlan
		plans, asserts = sys.Plan(scaf.SchemeSCAF)
		plan := &PlanInfo{Assertions: len(asserts)}
		for _, lp := range plans {
			plan.Free += lp.Plan.Free
			plan.Covered += lp.Plan.Covered
			plan.Dropped += lp.Plan.Dropped
			plan.Unresolved += lp.Plan.Unresolved
		}
		for _, a := range asserts {
			plan.TotalCost += a.Cost
		}
		sess.plan = plan
	case "off":
	default:
		return nil, errBadRequest("unknown plan mode %q (want validate|off)", req.Plan)
	}
	for i, wa := range req.Assertions {
		a, err := ResolveAssertion(sys.Mod, wa)
		if err != nil {
			return nil, errBadRequest("assertion %d: %v", i, err)
		}
		asserts = append(asserts, a)
	}
	if len(asserts) > 0 {
		rep, err := sys.Validate(asserts)
		if err != nil {
			return nil, &httpError{status: http.StatusUnprocessableEntity,
				detail: ErrorDetail{Code: "plan_validation_failed", Message: err.Error()}}
		}
		if sess.plan != nil {
			sess.plan.Checks = rep.Checks
		}
		if rep.Failed() {
			he := &httpError{status: http.StatusUnprocessableEntity,
				detail: ErrorDetail{Code: "plan_validation_failed",
					Message: fmt.Sprintf("%d misspeculations over %d runtime checks",
						len(rep.Violations), rep.Checks)}}
			for _, v := range rep.Violations {
				he.detail.Violations = append(he.detail.Violations,
					WireViolation{Assertion: v.Assertion.String(), Detail: v.Detail})
			}
			return nil, he
		}
	}

	// Warm one orchestrator per scheme. Each scheme gets its own
	// SharedCache: cached propositions embed module answers, so a cache
	// must never span schemes. SetTimeout varies per request, which is
	// safe alongside a SharedCache — incomplete resolutions are never
	// published (see core.SharedCache).
	for _, scheme := range []scaf.Scheme{scaf.SchemeCAF, scaf.SchemeConfluence, scaf.SchemeSCAF} {
		sc := core.NewSharedCache()
		// Recovery wiring: the quarantine revokes shared-cache entries at
		// lookup time, filters quarantined options at the module boundary,
		// and absorbs module panics (one faulty module degrades coverage,
		// never the daemon).
		sc.SetRevoker(sess.quarantine)
		sess.caches[scheme] = sc
		opts := []scaf.OrchOption{
			scaf.WithSharedCache(sc), scaf.WithLatency(),
			scaf.WithModuleWrapper(recovery.Wrapper(sess.quarantine)),
			scaf.WithPanicIsolation(sess.onModulePanic),
		}
		if scfg.ExtraModules != nil {
			// Mint per orchestrator (a plain WithExtraModules would freeze
			// one instance across the whole pool).
			mint := scfg.ExtraModules
			opts = append(opts, scaf.OrchOption(func(c *core.Config) {
				c.Modules = append(c.Modules, mint()...)
			}))
		}
		factory := sys.OrchestratorFactory(scheme, opts...)
		traceOn := sess.metrics != nil
		pool := &orchPool{}
		pool.mint = func() *pooledOrch {
			po := &pooledOrch{o: factory()}
			if traceOn {
				po.col = trace.NewCollector()
				po.o.SetTracer(po.col)
			}
			return po
		}
		pool.free = append(pool.free, pool.mint())
		sess.pools[scheme] = pool
	}
	return sess, nil
}

// info snapshots the session description.
func (sess *session) info() SessionInfo {
	si := SessionInfo{ID: sess.id, Name: sess.name, Plan: sess.plan}
	for _, l := range sess.hot {
		si.HotLoops = append(si.HotLoops, LoopInfo{Name: l.Name(), MemOps: len(l.MemOps())})
	}
	return si
}

// checkin folds the orchestrator's work since its last checkin into the
// session's cumulative accounting and returns it to the pool. The
// returned counters are the request's own contribution (Timeouts is the
// request's deadline misses).
func (sess *session) checkin(pool *orchPool, po *pooledOrch) core.Counters {
	st := po.o.Stats()
	delta := st.Counters

	sess.mu.Lock()
	sess.stats.Add(&delta)
	for i, d := range st.Latencies {
		if len(sess.latNS) >= latReservoir {
			sess.latDropped++
			continue
		}
		sess.latNS = append(sess.latNS, int64(d))
		if i < len(st.WorkSamples) {
			sess.latWork = append(sess.latWork, st.WorkSamples[i])
		} else {
			sess.latWork = append(sess.latWork, 0)
		}
	}
	sess.latDropped += st.LatencyDropped
	if sess.metrics != nil && po.col != nil {
		for _, e := range po.col.Events() {
			sess.metrics.Observe(e)
		}
	}
	sess.mu.Unlock()

	// The orchestrator stays warm; its counters and sample buffers do not.
	// Zeroing them (and the overflow counter) at each checkin keeps
	// long-lived orchestrators bounded and makes the next request's
	// counters self-contained.
	st.Counters = core.Counters{}
	st.Latencies = st.Latencies[:0]
	st.WorkSamples = st.WorkSamples[:0]
	st.LatencyDropped = 0
	if po.col != nil {
		po.col.Reset()
	}
	pool.put(po)
	return delta
}

// armDeadline returns the AnalyzeLoopHook hook re-arming o's per-query
// budget against the absolute deadline (nil for no deadline). Past the
// deadline every remaining query gets a 1ns budget: it bails out to its
// conservative best-so-far answer after the first timeout check instead
// of searching.
func armDeadline(o *core.Orchestrator, deadline time.Time) func() {
	if deadline.IsZero() {
		return nil
	}
	return func() {
		rem := time.Until(deadline)
		if rem <= 0 {
			rem = time.Nanosecond
		}
		o.SetTimeout(rem)
	}
}

// analyzeLoop resolves one loop's PDG under scheme, optionally bounded by
// an absolute deadline, and returns the wire result plus this request's
// counters.
func (sess *session) analyzeLoop(scheme scaf.Scheme, l *cfg.Loop, deadline time.Time) (WireLoopResult, core.Counters) {
	pool := sess.pools[scheme]
	po := pool.get()
	res := sess.client.ResolveLoopHook(po.o, l, armDeadline(po.o, deadline))
	po.o.SetTimeout(0)
	delta := sess.checkin(pool, po)
	return EncodeLoopResult(res), delta
}

// resolveQuery resolves one dependence query under scheme.
func (sess *session) resolveQuery(scheme scaf.Scheme, l *cfg.Loop, i1, i2 *ir.Instr, rel core.TemporalRelation, deadline time.Time) (WireQuery, core.Counters) {
	pool := sess.pools[scheme]
	po := pool.get()
	if hook := armDeadline(po.o, deadline); hook != nil {
		hook()
	}
	resp := po.o.ModRef(&core.ModRefQuery{
		I1: i1, I2: i2, Rel: rel, Loop: l,
		DT: sess.client.Prog.Dom[l.Fn], PDT: sess.client.Prog.PostDom[l.Fn],
	})
	po.o.SetTimeout(0)
	q := pdg.MaterializeQuery(i1, i2, rel, resp)
	delta := sess.checkin(pool, po)
	return EncodeQuery(&q), delta
}

// onModulePanic is the core.Config.OnModulePanic hook shared by every
// pooled orchestrator. The first panic of a module quarantines it
// session-wide and flushes every scheme's cache: a module shapes cached
// answers through premises without appearing in their assertion sets, so
// per-entry attribution would under-invalidate. Later queries degrade to
// the module-less ensemble instead of re-consulting the faulty module.
// The reply to the request that panicked names the new quarantine, and
// a router replicates it from there.
func (sess *session) onModulePanic(module string, recovered any) {
	if sess.quarantine.AddModule(module, fmt.Sprintf("panic: %v", recovered)) {
		sess.epoch.Add(1)
		for _, sc := range sess.caches {
			sc.Flush()
		}
	}
}

// observe applies one misspeculation report from production execution:
// quarantine the violated assertions (and any withdrawn modules),
// invalidate every cached answer predicated on them, and re-resolve the
// invalidated queries under the degraded plan so the caches are warm —
// and every served answer is recovery-consistent — before the response
// is written. A report with a malformed entry is refused whole, before
// anything is quarantined. Safe to run concurrently with serving
// traffic.
func (sess *session) observe(req *ObserveRequest) (*ObserveResponse, *httpError) {
	if len(req.Violations) == 0 && len(req.Modules) == 0 {
		return nil, errBadRequest("observe needs violations or modules")
	}
	for i, v := range req.Violations {
		if v.Assertion == "" {
			return nil, errBadRequest("violation %d: empty assertion", i)
		}
	}
	for i, m := range req.Modules {
		if m == "" {
			return nil, errBadRequest("module %d: empty name", i)
		}
	}
	resp := &ObserveResponse{Session: sess.id}
	keys := make([]string, 0, len(req.Violations))
	seen := map[string]bool{}
	for _, v := range req.Violations {
		if !seen[v.Assertion] {
			seen[v.Assertion] = true
			keys = append(keys, v.Assertion)
		}
		if sess.quarantine.AddAssert(v.Assertion, v.Detail) {
			resp.NewAsserts++
		}
	}
	for _, m := range req.Modules {
		if sess.quarantine.AddModule(m, "withdrawn via observe") {
			resp.NewModules++
		}
	}
	// New epoch: requests arriving after this report must not coalesce
	// onto computations started before it.
	sess.epoch.Add(1)
	sess.fleetRevoke(keys)

	if resp.NewModules > 0 {
		// Module withdrawal flushes wholesale (see onModulePanic); the
		// flush also covers anything the reported violations predicated.
		for _, sc := range sess.caches {
			a, m := sc.Flush()
			resp.Flushed += a + m
		}
	} else if len(keys) > 0 {
		for scheme, sc := range sess.caches {
			inv := sc.InvalidateAsserts(keys)
			n := inv.Total()
			if n == 0 {
				continue
			}
			resp.Invalidated += n
			// Re-resolve under the degraded plan: the quarantine filter
			// hides the violated options, so these answers land exactly
			// where a cold run without the misspeculation would put them.
			pool := sess.pools[scheme]
			po := pool.get()
			for _, q := range inv.Alias {
				po.o.Alias(q)
				resp.Reresolved++
			}
			for _, q := range inv.ModRef {
				po.o.ModRef(q)
				resp.Reresolved++
			}
			sess.checkin(pool, po)
		}
	}
	resp.Quarantine = sess.quarantine.Snapshot()
	return resp, nil
}

// execute runs the session's program under the speculative-parallel
// runtime, planning with the requested scheme. The runtime shares the
// session's quarantine — an assertion a real execution disproves is
// withdrawn from every subsequently-served answer — but runs against its
// own fresh shared cache: the execution path plans with JoinAll +
// exhaustive search, and cached propositions embed module answers, so its
// entries must never mix with the serving pools'. Assertions newly
// quarantined by misspeculation invalidate the serving caches' predicated
// entries, exactly as a POST /observe report of the same violations would.
func (sess *session) execute(req *ExecuteRequest) (*ExecuteResponse, *httpError) {
	scheme, he := parseScheme(req.Scheme)
	if he != nil {
		return nil, he
	}
	if req.Workers < 0 || req.Workers > 64 {
		return nil, errBadRequest("workers must be in [0, 64], got %d", req.Workers)
	}
	if req.MinIters < 0 {
		return nil, errBadRequest("min_iters must be >= 0, got %d", req.MinIters)
	}
	before := map[string]bool{}
	for _, k := range sess.quarantine.AssertKeys() {
		before[k] = true
	}
	rep, err := sess.sys.ExecutePlan(scheme, runtime.Config{
		Workers:    req.Workers,
		MinIters:   req.MinIters,
		Quarantine: sess.quarantine,
	})
	if err != nil {
		return nil, &httpError{status: http.StatusUnprocessableEntity,
			detail: ErrorDetail{Code: "execution_failed", Message: err.Error()}}
	}
	resp := &ExecuteResponse{Session: sess.id, Scheme: scheme.String(), Report: *rep}
	var newKeys []string
	for _, k := range rep.QuarantinedAsserts {
		if !before[k] {
			newKeys = append(newKeys, k)
		}
	}
	resp.NewAsserts = len(newKeys)
	if len(newKeys) > 0 {
		sess.epoch.Add(1)
		sess.fleetRevoke(newKeys)
		for _, sc := range sess.caches {
			resp.Invalidated += sc.InvalidateAsserts(newKeys).Total()
		}
	}
	resp.Quarantine = sess.quarantine.Snapshot()
	return resp, nil
}

// lookupInstr resolves a wire instruction ref, distinguishing malformed
// refs (400) from well-formed refs that name nothing (404).
func (sess *session) lookupInstr(ref string) (*ir.Instr, *httpError) {
	if _, _, err := splitInstrRef(ref); err != nil {
		return nil, errBadRequest("%v", err)
	}
	in, ok := sess.instrs[ref]
	if !ok {
		return nil, errNotFound("no instruction %q in session %s", ref, sess.id)
	}
	return in, nil
}

// metricsSnapshot renders the session's cumulative accounting.
func (sess *session) metricsSnapshot() SessionMetrics {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sm := SessionMetrics{Name: sess.name, Stats: sess.stats.Counters}
	if n := len(sess.latNS); n > 0 {
		ns := append([]int64(nil), sess.latNS...)
		work := append([]int64(nil), sess.latWork...)
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		sort.Slice(work, func(i, j int) bool { return work[i] < work[j] })
		var totNS, totWork int64
		for _, v := range ns {
			totNS += v
		}
		for _, v := range work {
			totWork += v
		}
		sm.Latency = &WireLatency{
			Samples: n,
			Dropped: sess.latDropped,
			P50NS:   percentile(ns, 50),
			P90NS:   percentile(ns, 90),
			P99NS:   percentile(ns, 99),
			P50Work: percentile(work, 50),
			P90Work: percentile(work, 90),
			MaxNS:   ns[n-1],
			TotalNS: totNS, TotalWrk: totWork,
		}
	}
	if sess.metrics != nil {
		wt := &WireTraceMetrics{
			TopQueries:     sess.metrics.TopQueries,
			PremiseQueries: sess.metrics.PremiseQueries,
			Consults:       sess.metrics.Consults,
			MaxDepth:       sess.metrics.MaxDepth,
			TopResults:     map[string]int64{},
			PerModule:      map[string]WireModuleMetrics{},
			Reconciles:     sess.metrics.Reconcile(&sess.stats) == nil,
		}
		for k, v := range sess.metrics.TopResults {
			wt.TopResults[k] = v
		}
		for name, mm := range sess.metrics.PerModule {
			wt.PerModule[name] = WireModuleMetrics{
				Consults:      mm.Consults,
				DurNS:         int64(mm.Dur),
				PremisesAsked: mm.PremisesAsked,
			}
		}
		sm.Trace = wt
	}
	if !sess.quarantine.Empty() {
		snap := sess.quarantine.Snapshot()
		sm.Quarantine = &snap
	}
	return sm
}

// percentile returns the p-th percentile of sorted samples
// (nearest-rank).
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}
