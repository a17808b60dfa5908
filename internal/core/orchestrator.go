package core

import (
	"fmt"
	"time"

	"scaf/internal/cfg"
	"scaf/internal/ir"
)

// JoinPolicy selects what the Orchestrator keeps from each response
// (paper Algorithm 2).
type JoinPolicy int

const (
	// JoinCheapest keeps only the locally optimal (cheapest) option.
	JoinCheapest JoinPolicy = iota
	// JoinAll collects every way a query can be resolved, enabling global
	// reasoning by the client.
	JoinAll
)

// BailoutPolicy selects when the Orchestrator stops querying modules
// (paper §3.3).
type BailoutPolicy int

const (
	// BailDefiniteAffordable stops at the first definite result with an
	// affordable option — the paper implementation's greedy search.
	BailDefiniteAffordable BailoutPolicy = iota
	// BailDefiniteFree stops only at definite, validation-free results.
	BailDefiniteFree
	// BailExhaustive always consults every module.
	BailExhaustive
)

// Routing selects how premise queries travel (the collaboration switch;
// see DESIGN.md).
type Routing int

const (
	// RouteCollaborative sends premise queries to every module —
	// composition by collaboration, i.e. SCAF.
	RouteCollaborative Routing = iota
	// RouteIsolated confines premise queries to the originating module's
	// technique group — composition by confluence, the best prior
	// approach the paper compares against (§2.2.1, §5).
	RouteIsolated
)

// Config configures an Orchestrator.
type Config struct {
	// Modules in evaluation order: memory-analysis modules first, then
	// speculation modules by ascending average assertion cost (§3.3).
	Modules []Module
	Join    JoinPolicy
	Bailout BailoutPolicy
	Routing Routing
	// Groups maps module name → technique group for RouteIsolated.
	// Modules without a group are their own group.
	Groups map[string]string
	// MaxDepth bounds premise-query nesting. 0 means 8.
	MaxDepth int
	// StripDesired removes the desired-result parameter from every query
	// before modules see it (the Fig. 10 ablation).
	StripDesired bool
	// Timeout, when positive, stops consulting further modules once a
	// top-level query has run this long — the compilation-time-sensitive
	// bail-out policy of §3.3. The best answer found so far is returned.
	Timeout time.Duration
	// EnableCache memoizes handle() results per proposition. Sound because
	// the program, profiles, and module set are immutable for the
	// orchestrator's lifetime. Resolutions degraded by an enclosing
	// in-flight proposition (conservative premise-cycle breaks) or by
	// having less remaining depth than a fresh resolution would (depth
	// limit hits) are tainted and never published, so cached runs are
	// answer-identical to uncached runs — the per-orchestrator analogue of
	// SharedCache's canonical-entry rule.
	EnableCache bool
	// RecordLatency appends per-top-level-query wall-clock durations to
	// Stats.Latencies (capped at MaxLatencySamples).
	RecordLatency bool
	// Shared, when non-nil, consults and populates a cross-orchestrator
	// memo cache for top-level queries. Unlike EnableCache it is safe for
	// concurrent use and only ever publishes canonical (complete, depth-0)
	// entries, so results stay bit-identical to an uncached run; see
	// SharedCache. All orchestrators attached to one SharedCache must share
	// an identical configuration.
	Shared *SharedCache
	// Tracer, when non-nil, receives per-event resolution traces (see
	// internal/trace for the collector, JSONL schema, and DOT rendering).
	// With a nil Tracer the orchestrator constructs no events and performs
	// no timing calls beyond the existing latency/timeout ones — the hot
	// path pays one pointer test per site.
	Tracer Tracer
	// IsolatePanics converts a panicking module evaluation into a
	// conservative answer (MayAlias / ModRef) instead of crashing the
	// caller: the recover sits at the single consult site, so a panic never
	// unwinds across resolution frames. The panicked resolution and every
	// enclosing in-flight frame are tainted — neither the per-orchestrator
	// memo nor the SharedCache publishes them — so the degraded answer is
	// confined to the one top-level query that hit the panic.
	IsolatePanics bool
	// OnModulePanic, when non-nil and IsolatePanics is set, is invoked with
	// the offending module's name and the recovered panic value after the
	// ModulePanics counter and trace event fire. Callers use it to
	// quarantine the module (see internal/recovery). It runs on the
	// orchestrator's goroutine and must not query the orchestrator.
	OnModulePanic func(module string, recovered any)
	// WrapModules, when non-nil, rewrites the module list at construction
	// time, after all other options have shaped it. This is the seam
	// recovery filters use to interpose on every module without the
	// assembler needing to know concrete module types.
	WrapModules func([]Module) []Module
	// ModuleOrder, when non-empty, rearranges Modules at construction time
	// (before WrapModules sees them) via ReorderModules — the adoption
	// point for a
	// profile-guided schedule. Consult order is visible in answers
	// (Contribs, option provenance), so only verified orders belong here:
	// see OrderProfile and pdg.LearnOrder.
	ModuleOrder []string
	// Interner, when non-nil, is the assertion-identity table module
	// responses are interned through at every consult site, making later
	// String()/key() calls pointer loads. When nil, the orchestrator uses
	// Shared's interner (so handle identity spans every worker attached to
	// one cache) or, failing that, a private one. Sessions that mint many
	// orchestrators without a shared cache should pass one Interner to all
	// of them.
	Interner *Interner
}

// Orchestrator coordinates interactions among modules and between modules
// and the client (paper §3.3, Algorithm 1). It is not safe for concurrent
// use; create one per goroutine.
type Orchestrator struct {
	cfg    Config
	stats  Stats
	tracer Tracer
	intern *Interner
	// actA/actM are the in-flight propositions, innermost last, with their
	// entry sequence numbers (see seq below); presence alone breaks premise
	// cycles. Resolutions nest at most MaxDepth+1 deep, so a linear scan
	// of the stack is cheaper than hashing the key into a set.
	actA   []inFlight[aliasKey]
	actM   []inFlight[modrefKey]
	groups map[string][]Module
	cacheA map[aliasMemoKey]AliasResponse
	cacheM map[modrefMemoKey]ModRefResponse
	// hslots are the reusable per-depth Handle values (see handleAt).
	hslots []*handle
	// batch/batchDepth track batch-scoped memoization (see batch.go); while
	// a batch is armed, cacheA/cacheM point into the pooled batch tables.
	batch      *batchTab
	batchDepth int
	// start of the in-flight top-level query, for the timeout policy.
	queryStart time.Time
	// timedOut reports whether the in-flight top-level query already
	// counted its timeout, so Stats.Timeouts is at most one per query.
	timedOut bool
	// seq numbers resolution entries; rootSeq is the entry of the in-flight
	// depth-0 resolution. Together they implement cache tainting: a
	// resolution entered at seq s is degraded exactly when a cycle break
	// referenced a proposition entered before s (the cycle leaves s's
	// subtree, so a fresh resolution of s would not hit it) or a depth
	// limit fired (which taints every frame but the root — only the root
	// re-runs at the same depth when resolved fresh).
	seq     int64
	rootSeq int64
	// windowMin is the smallest taint sequence observed during the current
	// innermost resolution window (maxInt64 when none); frames fold their
	// window into the parent's on exit.
	windowMin int64
	// peerLookups arms remote CachePeer consultation on shared-cache
	// misses (publications always flow). Default true; batch loop
	// resolution turns it off so a cold loop pass does not pay one remote
	// round trip per proposition (see SetPeerLookups).
	peerLookups bool
}

const noTaint = int64(^uint64(0) >> 1) // max int64

// NewOrchestrator builds an Orchestrator from cfg.
func NewOrchestrator(cfg Config) *Orchestrator {
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 8
	}
	if len(cfg.ModuleOrder) > 0 {
		cfg.Modules = ReorderModules(cfg.Modules, cfg.ModuleOrder)
	}
	if cfg.WrapModules != nil {
		cfg.Modules = cfg.WrapModules(cfg.Modules)
	}
	intern := cfg.Interner
	if intern == nil && cfg.Shared != nil {
		intern = cfg.Shared.Interner()
	}
	if intern == nil {
		intern = NewInterner()
	}
	o := &Orchestrator{
		cfg:         cfg,
		tracer:      cfg.Tracer,
		intern:      intern,
		groups:      map[string][]Module{},
		windowMin:   noTaint,
		peerLookups: true,
	}
	if cfg.EnableCache {
		o.cacheA = map[aliasMemoKey]AliasResponse{}
		o.cacheM = map[modrefMemoKey]ModRefResponse{}
	}
	for _, m := range cfg.Modules {
		g := cfg.Groups[m.Name()]
		if g == "" {
			g = m.Name()
		}
		o.groups[g] = append(o.groups[g], m)
	}
	return o
}

// Stats returns the accumulated counters.
func (o *Orchestrator) Stats() *Stats { return &o.stats }

// Modules returns a copy of the final module schedule — after ModuleOrder
// and WrapModules have shaped it — in consult order.
func (o *Orchestrator) Modules() []Module {
	return append([]Module(nil), o.cfg.Modules...)
}

// SetTracer attaches (or, with nil, detaches) a resolution tracer after
// construction. Useful for factories that mint identically-configured
// orchestrators but want one tracer per worker; must not be called while a
// query is in flight.
func (o *Orchestrator) SetTracer(t Tracer) { o.tracer = t }

// SetTimeout replaces the per-top-level-query time budget after
// construction (0 disables it). Like SetTracer it exists for pools that
// reuse identically-configured orchestrators across requests with
// different deadlines; it must not be called while a query is in flight.
// The timeout only ever cuts a search short — results found before the
// budget expires are unaffected, and incomplete resolutions are never
// published to caches — so varying it between requests cannot corrupt an
// attached SharedCache.
func (o *Orchestrator) SetTimeout(d time.Duration) { o.cfg.Timeout = d }

// SetPeerLookups arms or disarms remote CachePeer lookups on shared-cache
// misses for subsequent queries (publications to the peer always flow).
// Remote lookups trade one peer round trip for a whole resolution — a win
// for isolated queries, a loss inside a batched loop pass where hundreds
// of propositions resolve back-to-back against warm local state. Like
// SetTimeout, it must not be called while a query is in flight. Answers
// are unaffected either way: a remote hit is byte-identical to a fresh
// resolution (see CachePeer).
func (o *Orchestrator) SetPeerLookups(on bool) { o.peerLookups = on }

// aliasKey identifies the PROPOSITION an alias query asks about. The
// desired-result parameter is deliberately excluded: it tunes module
// effort, not meaning, so a premise re-asking an in-flight proposition
// with a different desired result is still a cycle.
type aliasKey struct {
	p1, p2  ir.Value
	s1, s2  int64
	rel     TemporalRelation
	loop    *cfg.Loop
	dt, pdt *cfg.Tree
}

type modrefKey struct {
	i1, i2  *ir.Instr
	locPtr  ir.Value
	locSize int64
	rel     TemporalRelation
	loop    *cfg.Loop
	dt, pdt *cfg.Tree
}

// inFlight is one proposition on the resolution stack and the sequence
// number it entered at.
type inFlight[K comparable] struct {
	key K
	seq int64
}

// findInFlight returns the entry sequence number of k when it is on stack.
func findInFlight[K comparable](stack []inFlight[K], k K) (int64, bool) {
	for i := range stack {
		if stack[i].key == k {
			return stack[i].seq, true
		}
	}
	return 0, false
}

func keyOfAlias(q *AliasQuery) aliasKey {
	return aliasKey{q.L1.Ptr, q.L2.Ptr, q.L1.Size, q.L2.Size, q.Rel, q.Loop, q.DT, q.PDT}
}

func keyOfModRef(q *ModRefQuery) modrefKey {
	return modrefKey{q.I1, q.I2, q.Loc.Ptr, q.Loc.Size, q.Rel, q.Loop, q.DT, q.PDT}
}

// aliasMemoKey / modrefMemoKey extend the proposition keys with everything
// else a resolution depends on, so the per-orchestrator memo (lifetime or
// batch-scoped) only ever serves a result to a query that would have
// resolved identically fresh:
//
//   - ctx: the call context, which context-sensitive modules consult
//     (pointer identity — contexts are rebuilt per premise chain, so
//     distinct pointers never false-hit);
//   - desired: the desired-result parameter, which skips incapable modules
//     (§3.2.2) and therefore changes what a resolution evaluates;
//   - aud: the premise audience under RouteIsolated ("" when the audience
//     is the full ensemble), without which a resolution confined to one
//     technique group could leak to another — observable as Confluence
//     results changing when memoization is enabled.
//
// The in-flight tables and the SharedCache stay on the bare proposition
// keys: re-asking a proposition in any context is still a cycle, and the
// shared cache only admits canonical entries (top-level, full audience,
// desired-free, nil context).
type aliasMemoKey struct {
	aliasKey
	ctx     *CallCtx
	desired DesiredAlias
	aud     string
}

type modrefMemoKey struct {
	modrefKey
	ctx *CallCtx
	aud string
}

// audienceID names the audience a query resolves against: "" for the full
// ensemble, else the originating module's technique group.
func (o *Orchestrator) audienceID(from Module) string {
	if from == nil || o.cfg.Routing == RouteCollaborative {
		return ""
	}
	g := o.cfg.Groups[from.Name()]
	if g == "" {
		g = from.Name()
	}
	return g
}

// Alias resolves a client alias query.
func (o *Orchestrator) Alias(q *AliasQuery) AliasResponse {
	o.stats.TopQueries++
	o.timedOut = false
	if o.cfg.Timeout > 0 {
		o.queryStart = time.Now()
	}
	t := o.tracer
	var start time.Time
	if t != nil || o.cfg.RecordLatency {
		start = time.Now()
	}
	if t != nil {
		t.TraceEvent(TraceEvent{Kind: TraceTopStart, Alias: true, Prop: q.describe()})
	}
	evals0 := o.stats.ModuleEvals
	r := o.handleAlias(q, 0, nil)
	// One reading serves both accounting sinks: the traced Dur and the
	// recorded latency sample of the same query must agree exactly.
	var dur time.Duration
	if t != nil || o.cfg.RecordLatency {
		dur = time.Since(start)
	}
	if o.cfg.RecordLatency {
		o.stats.recordLatency(dur, o.stats.ModuleEvals-evals0)
	}
	if t != nil {
		t.TraceEvent(TraceEvent{Kind: TraceTopEnd, Alias: true, Result: r.Result.String(),
			Cost: MinCost(r.Options), Dur: dur, Contribs: r.Contribs,
			TimedOut: o.timedOut})
	}
	return r
}

// ModRef resolves a client mod-ref query.
func (o *Orchestrator) ModRef(q *ModRefQuery) ModRefResponse {
	o.stats.TopQueries++
	o.timedOut = false
	if o.cfg.Timeout > 0 {
		o.queryStart = time.Now()
	}
	t := o.tracer
	var start time.Time
	if t != nil || o.cfg.RecordLatency {
		start = time.Now()
	}
	if t != nil {
		t.TraceEvent(TraceEvent{Kind: TraceTopStart, Prop: q.describe()})
	}
	evals0 := o.stats.ModuleEvals
	r := o.handleModRef(q, 0, nil)
	var dur time.Duration // single reading; see Alias
	if t != nil || o.cfg.RecordLatency {
		dur = time.Since(start)
	}
	if o.cfg.RecordLatency {
		o.stats.recordLatency(dur, o.stats.ModuleEvals-evals0)
	}
	if t != nil {
		t.TraceEvent(TraceEvent{Kind: TraceTopEnd, Result: r.Result.String(),
			Cost: MinCost(r.Options), Dur: dur, Contribs: r.Contribs,
			TimedOut: o.timedOut})
	}
	return r
}

// checkTimeout reports whether the in-flight query exceeded the budget.
// The first expired check counts the timeout; later checks keep reporting
// true (stopping every still-open search level) without recounting, so one
// timed-out query contributes exactly one to Stats.Timeouts.
func (o *Orchestrator) checkTimeout() bool {
	if o.cfg.Timeout <= 0 || o.queryStart.IsZero() {
		return false
	}
	if o.timedOut {
		return true
	}
	if time.Since(o.queryStart) > o.cfg.Timeout {
		o.timedOut = true
		o.stats.Timeouts++
		if t := o.tracer; t != nil {
			t.TraceEvent(TraceEvent{Kind: TraceTimeout, Dur: time.Since(o.queryStart)})
		}
		return true
	}
	return false
}

// audience returns the modules a query (premise queries carry the
// originating module in from) is evaluated against.
func (o *Orchestrator) audience(from Module) []Module {
	if from == nil || o.cfg.Routing == RouteCollaborative {
		return o.cfg.Modules
	}
	g := o.cfg.Groups[from.Name()]
	if g == "" {
		g = from.Name()
	}
	return o.groups[g]
}

func (o *Orchestrator) bailAlias(r AliasResponse) bool {
	switch o.cfg.Bailout {
	case BailDefiniteFree:
		return r.IsDefinite() && HasFree(r.Options)
	case BailExhaustive:
		return false
	default:
		return r.IsDefinite() && MinCost(r.Options) < Prohibitive
	}
}

func (o *Orchestrator) bailModRef(r ModRefResponse) bool {
	switch o.cfg.Bailout {
	case BailDefiniteFree:
		return r.IsDefinite() && HasFree(r.Options)
	case BailExhaustive:
		return false
	default:
		return r.IsDefinite() && MinCost(r.Options) < Prohibitive
	}
}

func (o *Orchestrator) handleAlias(q *AliasQuery, depth int, from Module) (resp AliasResponse) {
	if depth > o.cfg.MaxDepth {
		o.noteDepthLimit(true, depth, from)
		return MayAliasResponse()
	}
	if depth > 0 {
		o.stats.PremiseQueries++
		if t := o.tracer; t != nil {
			t.TraceEvent(TraceEvent{Kind: TracePremiseStart, Alias: true,
				Prop: q.describe(), Depth: depth, From: moduleName(from)})
			defer func() {
				t.TraceEvent(TraceEvent{Kind: TracePremiseEnd, Alias: true,
					Depth: depth, Result: resp.Result.String()})
			}()
		}
	}
	if o.cfg.StripDesired && q.Desired != AnyAlias {
		cp := *q
		cp.Desired = AnyAlias
		q = &cp
	}
	k := keyOfAlias(q)
	if entry, inFlight := findInFlight(o.actA, k); inFlight {
		// Break premise cycles conservatively; the answer depends on the
		// in-flight proposition, so taint every frame that started after it.
		o.noteCycleBreak(true, depth, from, entry)
		return MayAliasResponse()
	}
	var mk aliasMemoKey
	if o.cacheA != nil {
		mk = aliasMemoKey{k, q.Ctx, q.Desired, o.audienceID(from)}
		if r, ok := o.cacheA[mk]; ok {
			o.stats.CacheHits++
			if t := o.tracer; t != nil {
				t.TraceEvent(TraceEvent{Kind: TraceCacheHit, Alias: true, Depth: depth})
			}
			return r
		}
	}
	// Shared-cache participation is restricted to canonical resolutions:
	// top-level, and (for alias) the desired-result-free form.
	shared := o.cfg.Shared != nil && depth == 0 && q.Desired == AnyAlias
	if shared {
		if r, ok := o.cfg.Shared.getAlias(k); ok {
			o.stats.SharedHits++
			if t := o.tracer; t != nil {
				t.TraceEvent(TraceEvent{Kind: TraceSharedHit, Alias: true, Depth: depth})
			}
			return r
		}
	}
	o.seq++
	s := o.seq
	if depth == 0 {
		o.rootSeq = s
	}
	savedWindow := o.windowMin
	o.windowMin = noTaint
	o.actA = append(o.actA, inFlight[aliasKey]{k, s})
	defer func() { o.actA = o.actA[:len(o.actA)-1] }()

	final := MayAliasResponse()
	complete := true
	for _, m := range o.audience(from) {
		if o.checkTimeout() {
			complete = false
			break
		}
		if q.Desired != AnyAlias {
			if caps, ok := m.(AliasCaps); ok && !caps.CanAnswerAlias(q.Desired) {
				continue // desired-result bail-out (§3.2.2)
			}
		}
		o.stats.ModuleEvals++
		t := o.tracer
		var cstart time.Time
		if t != nil {
			cstart = time.Now()
		}
		res := o.consultAlias(m, q, depth)
		// Intern the response's assertions while this goroutine still owns
		// the freshly-built option set; all later identity work — joins,
		// dedup, publication keys, plan attribution — is then pointer-fast.
		res.Options = o.intern.options(res.Options)
		if t != nil {
			t.TraceEvent(TraceEvent{Kind: TraceConsult, Alias: true, Depth: depth,
				Module: m.Name(), Result: res.Result.String(),
				Cost: MinCost(res.Options), Dur: time.Since(cstart)})
		}
		final = o.joinAlias(final, res)
		if o.bailAlias(final) {
			break
		}
	}
	// A cycle break that left this frame's subtree (windowMin < s) means
	// the answer was degraded by an enclosing in-flight proposition; a
	// depth-limit taint (windowMin == rootSeq on a premise frame) means a
	// fresh resolution would have had more depth to work with. Either way
	// the answer may be less precise than a fresh resolution's, so it must
	// not be memoized.
	tainted := o.windowMin < s
	if o.windowMin < savedWindow {
		savedWindow = o.windowMin
	}
	o.windowMin = savedWindow
	if o.cacheA != nil && complete && !tainted {
		o.cacheA[mk] = final
	}
	// Root frames used to be untaintable (cycle breaks and depth limits
	// both bottom out at rootSeq), so gating publication on !tainted here
	// is answer-preserving for them; panic taints (floor 0) are the one
	// source that reaches depth 0, and those must never publish.
	if shared && complete && !tainted {
		o.cfg.Shared.putAlias(k, final)
	}
	return final
}

func (o *Orchestrator) handleModRef(q *ModRefQuery, depth int, from Module) (resp ModRefResponse) {
	if depth > o.cfg.MaxDepth {
		o.noteDepthLimit(false, depth, from)
		return ModRefConservative()
	}
	if depth > 0 {
		o.stats.PremiseQueries++
		if t := o.tracer; t != nil {
			t.TraceEvent(TraceEvent{Kind: TracePremiseStart,
				Prop: q.describe(), Depth: depth, From: moduleName(from)})
			defer func() {
				t.TraceEvent(TraceEvent{Kind: TracePremiseEnd,
					Depth: depth, Result: resp.Result.String()})
			}()
		}
	}
	k := keyOfModRef(q)
	if entry, inFlight := findInFlight(o.actM, k); inFlight {
		o.noteCycleBreak(false, depth, from, entry)
		return ModRefConservative()
	}
	var mk modrefMemoKey
	if o.cacheM != nil {
		mk = modrefMemoKey{k, q.Ctx, o.audienceID(from)}
		if r, ok := o.cacheM[mk]; ok {
			o.stats.CacheHits++
			if t := o.tracer; t != nil {
				t.TraceEvent(TraceEvent{Kind: TraceCacheHit, Depth: depth})
			}
			return r
		}
	}
	shared := o.cfg.Shared != nil && depth == 0
	if shared {
		if r, ok, remote := o.cfg.Shared.getModRef(k, q, o.peerLookups); ok {
			o.stats.SharedHits++
			if remote {
				o.stats.RemoteHits++
			}
			if t := o.tracer; t != nil {
				t.TraceEvent(TraceEvent{Kind: TraceSharedHit, Depth: depth})
			}
			return r
		}
	}
	o.seq++
	s := o.seq
	if depth == 0 {
		o.rootSeq = s
	}
	savedWindow := o.windowMin
	o.windowMin = noTaint
	o.actM = append(o.actM, inFlight[modrefKey]{k, s})
	defer func() { o.actM = o.actM[:len(o.actM)-1] }()

	final := ModRefConservative()
	complete := true
	for _, m := range o.audience(from) {
		if o.checkTimeout() {
			complete = false
			break
		}
		o.stats.ModuleEvals++
		t := o.tracer
		var cstart time.Time
		if t != nil {
			cstart = time.Now()
		}
		res := o.consultModRef(m, q, depth)
		res.Options = o.intern.options(res.Options) // see handleAlias
		if t != nil {
			t.TraceEvent(TraceEvent{Kind: TraceConsult, Depth: depth,
				Module: m.Name(), Result: res.Result.String(),
				Cost: MinCost(res.Options), Dur: time.Since(cstart)})
		}
		final = o.joinModRef(final, res)
		if o.bailModRef(final) {
			break
		}
	}
	tainted := o.windowMin < s // see handleAlias
	if o.windowMin < savedWindow {
		savedWindow = o.windowMin
	}
	o.windowMin = savedWindow
	if o.cacheM != nil && complete && !tainted {
		o.cacheM[mk] = final
	}
	if shared && complete && !tainted { // see handleAlias
		o.cfg.Shared.putModRef(k, final)
	}
	return final
}

// consultAlias evaluates one module on an alias query. With
// Config.IsolatePanics set, a panic anywhere under the module's evaluation
// is recovered here — the innermost consult frame — so unwinding never
// crosses a resolution frame, and the module's contribution becomes the
// join-neutral conservative answer.
func (o *Orchestrator) consultAlias(m Module, q *AliasQuery, depth int) (resp AliasResponse) {
	if o.cfg.IsolatePanics {
		defer func() {
			if r := recover(); r != nil {
				o.notePanic(true, depth, m, r)
				resp = MayAliasResponse()
			}
		}()
	}
	return m.Alias(q, o.handleAt(depth, m))
}

// consultModRef is consultAlias for mod-ref queries.
func (o *Orchestrator) consultModRef(m Module, q *ModRefQuery, depth int) (resp ModRefResponse) {
	if o.cfg.IsolatePanics {
		defer func() {
			if r := recover(); r != nil {
				o.notePanic(false, depth, m, r)
				resp = ModRefConservative()
			}
		}()
	}
	return m.ModRef(q, o.handleAt(depth, m))
}

// notePanic records a recovered module panic. The taint floor drops to 0 —
// below every entry seq — so the panicked resolution and every enclosing
// in-flight frame are degraded: none of them is memoized or published, and
// the conservative answer stays confined to the query that hit the panic.
func (o *Orchestrator) notePanic(alias bool, depth int, m Module, recovered any) {
	o.stats.ModulePanics++
	o.windowMin = 0
	if t := o.tracer; t != nil {
		t.TraceEvent(TraceEvent{Kind: TraceModulePanic, Alias: alias, Depth: depth,
			Module: moduleName(m), Prop: fmt.Sprint(recovered)})
	}
	if f := o.cfg.OnModulePanic; f != nil {
		f(moduleName(m), recovered)
	}
}

// noteCycleBreak records a conservative premise-cycle break: the in-flight
// proposition entered at seq entry is being re-asked, so every resolution
// that started after it (frames with entry seq > entry, i.e. the frames
// between the in-flight proposition and this premise) is answering with
// information a fresh resolution would not be constrained by.
func (o *Orchestrator) noteCycleBreak(alias bool, depth int, from Module, entry int64) {
	o.stats.CycleBreaks++
	if entry < o.windowMin {
		o.windowMin = entry
	}
	if t := o.tracer; t != nil {
		t.TraceEvent(TraceEvent{Kind: TraceCycleBreak, Alias: alias,
			Depth: depth, From: moduleName(from)})
	}
}

// noteDepthLimit records a premise rejected at MaxDepth. Only the depth-0
// frame would replay identically when resolved fresh, so the taint floor is
// the root's entry seq: every premise-level frame in flight is tainted.
func (o *Orchestrator) noteDepthLimit(alias bool, depth int, from Module) {
	o.stats.DepthLimits++
	if o.rootSeq < o.windowMin {
		o.windowMin = o.rootSeq
	}
	if t := o.tracer; t != nil {
		t.TraceEvent(TraceEvent{Kind: TraceDepthLimit, Alias: alias,
			Depth: depth, From: moduleName(from)})
	}
}

// handle implements Handle for one module evaluation. The orchestrator
// reuses one slot per depth (handleAt) instead of boxing a fresh value
// into the Handle interface on every consult: module evaluations at one
// depth are strictly sequential on the orchestrator's goroutine, and a
// Handle is only valid for the duration of the evaluation it was passed
// to — modules must not retain it (none does; it would also be wrong
// under the premise-routing rules).
type handle struct {
	o     *Orchestrator
	depth int
	from  Module
}

// handleAt returns the reusable per-depth Handle, rebound to from.
func (o *Orchestrator) handleAt(depth int, from Module) *handle {
	for len(o.hslots) <= depth {
		o.hslots = append(o.hslots, &handle{o: o, depth: len(o.hslots)})
	}
	h := o.hslots[depth]
	h.from = from
	return h
}

func (h *handle) PremiseAlias(q *AliasQuery) AliasResponse {
	return h.o.handleAlias(q, h.depth+1, h.from)
}

func (h *handle) PremiseModRef(q *ModRefQuery) ModRefResponse {
	return h.o.handleModRef(q, h.depth+1, h.from)
}

// joinAlias implements the paper's join (Algorithm 2) for alias results.
func (o *Orchestrator) joinAlias(r1, r2 AliasResponse) AliasResponse {
	// Fast path: options attached to the bottom result are meaningless,
	// so two MayAlias responses join without any set algebra.
	if r1.Result == MayAlias && r2.Result == MayAlias {
		return MayAliasResponse()
	}
	p1, p2 := aliasPrecision(r1.Result), aliasPrecision(r2.Result)
	if p1 > p2 {
		return r1
	}
	if p2 > p1 {
		return r2
	}
	if r1.Result == r2.Result {
		return AliasResponse{
			Result:   r1.Result,
			Options:  o.combineSame(r1.Options, r2.Options),
			Contribs: o.combineContribs(r1, r2),
		}
	}
	// Same precision, different results: NoAlias vs MustAlias (or
	// SubAlias-level disagreements cannot happen: only one such result).
	return o.conflictAlias(r1, r2)
}

// combineSame merges option sets for identical results per join policy.
func (o *Orchestrator) combineSame(s1, s2 []Option) []Option {
	u := UnionOptions(s1, s2)
	if o.cfg.Join == JoinCheapest {
		return CheapestOf(u)
	}
	return u
}

func (o *Orchestrator) combineContribs(r1 AliasResponse, r2 AliasResponse) []string {
	if o.cfg.Join == JoinAll {
		return MergeContribs(r1.Contribs, r2.Contribs)
	}
	// CHEAPEST: attribute to whichever response supplied the kept option.
	if MinCost(r1.Options) <= MinCost(r2.Options) {
		return r1.Contribs
	}
	return r2.Contribs
}

// conflictAlias resolves NoAlias-vs-MustAlias disagreements: a free answer
// is ground truth; between speculative answers the cheaper (more
// confident-per-cost) one wins (paper §3.3: different profiling inputs can
// support different results).
func (o *Orchestrator) conflictAlias(r1, r2 AliasResponse) AliasResponse {
	o.stats.Conflicts++
	f1, f2 := HasFree(r1.Options), HasFree(r2.Options)
	switch {
	case f1 && !f2:
		return r1
	case f2 && !f1:
		return r2
	case MinCost(r1.Options) <= MinCost(r2.Options):
		return r1
	default:
		return r2
	}
}

// joinModRef implements Algorithm 2 for mod-ref results, including the
// Mod × Ref → NoModRef special case: results are upper bounds, so a
// proof of "never reads" combined with a proof of "never writes" yields
// "never accesses", provided the assertion sets do not conflict.
func (o *Orchestrator) joinModRef(r1, r2 ModRefResponse) ModRefResponse {
	if r1.Result == ModRef && r2.Result == ModRef {
		return ModRefConservative()
	}
	p1, p2 := modrefPrecision(r1.Result), modrefPrecision(r2.Result)
	if p1 > p2 {
		return r1
	}
	if p2 > p1 {
		return r2
	}
	if r1.Result == r2.Result {
		return ModRefResponse{
			Result:   r1.Result,
			Options:  o.combineSame(r1.Options, r2.Options),
			Contribs: o.combineContribsMR(r1, r2),
		}
	}
	if (r1.Result == Mod && r2.Result == Ref) || (r1.Result == Ref && r2.Result == Mod) {
		if OptionsConflict(r1.Options, r2.Options) {
			o.stats.Conflicts++
			if MinCost(r1.Options) <= MinCost(r2.Options) {
				return r1
			}
			return r2
		}
		return ModRefResponse{
			Result:   NoModRef,
			Options:  o.postJoin(CrossOptions(r1.Options, r2.Options)),
			Contribs: MergeContribs(r1.Contribs, r2.Contribs),
		}
	}
	// Remaining same-precision disagreement is impossible in this lattice.
	return r1
}

func (o *Orchestrator) postJoin(s []Option) []Option {
	if o.cfg.Join == JoinCheapest {
		return CheapestOf(s)
	}
	return s
}

func (o *Orchestrator) combineContribsMR(r1, r2 ModRefResponse) []string {
	if o.cfg.Join == JoinAll {
		return MergeContribs(r1.Contribs, r2.Contribs)
	}
	if MinCost(r1.Options) <= MinCost(r2.Options) {
		return r1.Contribs
	}
	return r2.Contribs
}
