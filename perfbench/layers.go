package main

// Timed calls into the library layers. Every layer is measured from
// outside, by timing calls into its public functions; the traced run
// also records a span around each call.

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"scaf"
	"scaf/internal/cfg"
	"scaf/internal/core"
	"scaf/internal/interp"
	"scaf/internal/lower"
	"scaf/internal/pdg"
	"scaf/internal/profile"
)

var schemes = []scaf.Scheme{scaf.SchemeCAF, scaf.SchemeConfluence, scaf.SchemeSCAF}

// observerNames are the six profilers profile.Collect attaches, in its
// order, each with the constructor Collect uses.
var observerNames = []string{"edge", "value", "pointsto", "residue", "lifetime", "memdep"}

func newObserver(name string, prog *cfg.Program, tr *profile.Tracker) interp.Observer {
	switch name {
	case "edge":
		return profile.NewEdgeProfile(prog.Mod)
	case "value":
		return profile.NewValueProfile()
	case "pointsto":
		return profile.NewPointsToProfile(tr)
	case "residue":
		return profile.NewResidueProfile()
	case "lifetime":
		return profile.NewLifetimeProfile(tr)
	case "memdep":
		return profile.NewMemDepProfile(tr)
	}
	panic("perfbench: unknown observer " + name)
}

// libStats accumulates the library layers' per-call timings and counts.
type libStats struct {
	compile, cfgBuild, bare, collect, observe, tracker []time.Duration
	observer                                           map[string][]time.Duration
	compileAllocs, runAllocs, collectAllocs            []uint64
	steps                                              int64

	orchNew        []time.Duration
	resolve        [3][]time.Duration // per scheme, one ResolveLoop call each
	plan, validate []time.Duration

	core                core.Stats // counters only
	queries, queryAlloc uint64     // single ModRef calls and the allocations they made
}

func newLibStats() *libStats { return &libStats{observer: map[string][]time.Duration{}} }

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// addCounters folds an orchestrator's counters in; latency samples are
// not recorded by the orchestrators the benchmark mints.
func (ls *libStats) addCounters(st *core.Stats) {
	ls.core.TopQueries += st.TopQueries
	ls.core.PremiseQueries += st.PremiseQueries
	ls.core.ModuleEvals += st.ModuleEvals
	ls.core.CacheHits += st.CacheHits
}

// breakdown splits one program's load into its layers, each timed on its
// own: lower.Compile, cfg.NewProgram, a bare interp.Run, profile.Collect,
// a run under the loop tracker alone, and one run per profiler under the
// tracker plus that profiler. The profiler's cost is the last minus the
// tracker-alone run. It returns the compiled, profiled program.
func (ls *libStats) breakdown(tr *Tracer, parent int64, name, src string) (*cfg.Program, *profile.Data, error) {
	a := mallocs()
	t0 := time.Now()
	mod, err := lower.Compile(name, src)
	t1 := time.Now()
	ls.compileAllocs = append(ls.compileAllocs, mallocs()-a)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: compile: %w", name, err)
	}
	ls.compile = append(ls.compile, t1.Sub(t0))
	tr.record("lower.Compile", parent, t0, t1)

	t0 = time.Now()
	prog := cfg.NewProgram(mod)
	t1 = time.Now()
	ls.cfgBuild = append(ls.cfgBuild, t1.Sub(t0))
	tr.record("cfg.NewProgram", parent, t0, t1)

	// Every run starts on a collected heap, so none pays for the
	// garbage of the run before it.
	runtime.GC()
	a = mallocs()
	t0 = time.Now()
	res, err := interp.Run(mod, interp.Options{})
	t1 = time.Now()
	ls.runAllocs = append(ls.runAllocs, mallocs()-a)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: run: %w", name, err)
	}
	bare := t1.Sub(t0)
	ls.bare = append(ls.bare, bare)
	ls.steps += res.Steps
	tr.record("interp.Run", parent, t0, t1)

	runtime.GC()
	a = mallocs()
	t0 = time.Now()
	data, err := profile.Collect(prog, interp.Options{})
	t1 = time.Now()
	ls.collectAllocs = append(ls.collectAllocs, mallocs()-a)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: collect: %w", name, err)
	}
	ls.collect = append(ls.collect, t1.Sub(t0))
	ls.observe = append(ls.observe, t1.Sub(t0)-bare)
	tr.record("profile.Collect", parent, t0, t1)

	tracked := func(obs string) (time.Duration, error) {
		tk := profile.NewTracker(prog)
		if main := mod.FuncNamed("main"); main != nil {
			tk.Begin(main)
		}
		o := []interp.Observer{tk}
		spanName := "interp.Run+tracker"
		if obs != "" {
			o = append(o, newObserver(obs, prog, tk))
			spanName += "+" + obs
		}
		runtime.GC()
		s := time.Now()
		_, err := interp.Run(mod, interp.Options{Observers: o})
		e := time.Now()
		tr.record(spanName, parent, s, e)
		return e.Sub(s), err
	}
	tk, err := tracked("")
	if err != nil {
		return nil, nil, fmt.Errorf("%s: tracked run: %w", name, err)
	}
	ls.tracker = append(ls.tracker, tk-bare)
	for _, obs := range observerNames {
		d, err := tracked(obs)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: run with %s: %w", name, obs, err)
		}
		ls.observer[obs] = append(ls.observer[obs], d-tk)
	}
	return prog, data, nil
}

// newOrch mints a fresh orchestrator, timing System.Orchestrator.
func (ls *libStats) newOrch(tr *Tracer, parent int64, sys *scaf.System, scheme scaf.Scheme, opts ...scaf.OrchOption) *core.Orchestrator {
	t0 := time.Now()
	o := sys.Orchestrator(scheme, opts...)
	t1 := time.Now()
	ls.orchNew = append(ls.orchNew, t1.Sub(t0))
	tr.record("core.Orchestrator", parent, t0, t1)
	return o
}

// resolvePass runs serial ResolveLoop over the hot loops under every
// scheme, each with a fresh orchestrator, and returns the results by
// scheme.
func (ls *libStats) resolvePass(tr *Tracer, parent int64, sys *scaf.System, client *pdg.Client, hot []*cfg.Loop) [3][]*pdg.LoopResult {
	var out [3][]*pdg.LoopResult
	for si, scheme := range schemes {
		o := ls.newOrch(tr, parent, sys, scheme)
		out[si] = make([]*pdg.LoopResult, len(hot))
		for li, l := range hot {
			t0 := time.Now()
			out[si][li] = client.ResolveLoop(o, l)
			t1 := time.Now()
			ls.resolve[si] = append(ls.resolve[si], t1.Sub(t0))
			tr.record("pdg.ResolveLoop."+scheme.String(), parent, t0, t1)
		}
		ls.addCounters(o.Stats())
	}
	return out
}

// planAndValidate is the rest of a server's session build after the
// load: the global validation plan (ResolveLoop under the planner's
// settings, then pdg.BuildPlan per loop) and System.Validate of its
// assertions on the training input. A plan that misspeculates on its
// own training input is a wrong answer.
func (ls *libStats) planAndValidate(tr *Tracer, parent int64, sys *scaf.System, hot []*cfg.Loop) error {
	t0 := time.Now()
	o := ls.newOrch(tr, parent, sys, scaf.SchemeSCAF, scaf.WithJoin(core.JoinAll), scaf.WithBailout(core.BailExhaustive))
	client := sys.Client()
	var asserts []core.Assertion
	seen := map[string]bool{}
	for _, l := range hot {
		p := pdg.BuildPlan(client.ResolveLoop(o, l).Queries)
		for _, a := range p.Assertions {
			if k := a.String(); !seen[k] {
				seen[k] = true
				asserts = append(asserts, a)
			}
		}
	}
	t1 := time.Now()
	ls.plan = append(ls.plan, t1.Sub(t0))
	tr.record("pdg.BuildPlan", parent, t0, t1)
	if len(asserts) == 0 {
		return nil
	}
	rep, err := sys.Validate(asserts)
	t2 := time.Now()
	ls.validate = append(ls.validate, t2.Sub(t1))
	tr.record("validate.Check", parent, t1, t2)
	if err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	if rep.Failed() {
		return fmt.Errorf("plan of %d assertions misspeculated %d times on its training input",
			len(asserts), len(rep.Violations))
	}
	return nil
}

func meanU(xs []uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s uint64
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

// layerMetrics turns the accumulated library measurements into the
// library half of the per-layer metrics.
func (ls *libStats) layerMetrics(m map[string]float64) {
	m["lower.compile_ms"] = ms(meanDur(ls.compile))
	m["lower.allocs"] = meanU(ls.compileAllocs)
	m["cfg.build_ms"] = ms(meanDur(ls.cfgBuild))
	m["interp.run_ms"] = ms(meanDur(ls.bare))
	m["interp.steps"] = float64(ls.steps)
	m["interp.allocs"] = meanU(ls.runAllocs)
	m["profile.collect_ms"] = ms(meanDur(ls.collect))
	m["profile.observe_ms"] = ms(meanDur(ls.observe))
	m["profile.allocs"] = meanU(ls.collectAllocs)
	m["profile.tracker_ms"] = ms(meanDur(ls.tracker))
	for _, obs := range observerNames {
		m["profile."+obs+"_ms"] = ms(meanDur(ls.observer[obs]))
	}
	m["core.orch_new_us"] = us(meanDur(ls.orchNew))
	m["core.top_queries"] = float64(ls.core.TopQueries)
	m["core.premise_queries"] = float64(ls.core.PremiseQueries)
	m["core.module_evals"] = float64(ls.core.ModuleEvals)
	m["core.cache_hits"] = float64(ls.core.CacheHits)
	m["core.evals_per_query"] = 0
	if ls.core.TopQueries > 0 {
		m["core.evals_per_query"] = float64(ls.core.ModuleEvals) / float64(ls.core.TopQueries)
	}
	m["core.allocs_per_query"] = 0
	if ls.queries > 0 {
		m["core.allocs_per_query"] = float64(ls.queryAlloc) / float64(ls.queries)
	}
	for si, scheme := range schemes {
		m["pdg.resolve_"+strings.ToLower(scheme.String())+"_ms"] = ms(meanDur(ls.resolve[si]))
	}
	m["pdg.plan_ms"] = ms(meanDur(ls.plan))
	m["validate.check_ms"] = ms(meanDur(ls.validate))
}

// replay runs one program through the library the way a session build
// does, layer by layer (see libStats.breakdown), then plans and
// validates it and resolves its hot loops under every scheme. The
// serving workloads use it to split their session builds into layers.
func (ls *libStats) replay(tr *Tracer, name, src string, opts scaf.Options) error {
	runtime.GC()
	root := tr.reserve()
	start := time.Now()
	prog, data, err := ls.breakdown(tr, root, name, src)
	if err != nil {
		return err
	}
	hotParams := opts.HotLoops
	if hotParams == nil {
		p := profile.DefaultHotLoopParams()
		hotParams = &p
	}
	sys := &scaf.System{Mod: prog.Mod, Prog: prog, Profiles: data}
	hot := data.HotLoops(*hotParams)
	if err := ls.planAndValidate(tr, root, sys, hot); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	a := mallocs()
	top := ls.core.TopQueries
	ls.resolvePass(tr, root, sys, pdg.NewClient(prog), hot)
	ls.queryAlloc += mallocs() - a
	ls.queries += uint64(ls.core.TopQueries - top)
	tr.finish(Span{ID: root, Name: "replay", Key: name, Start: tr.since(start), End: tr.since(time.Now())})
	return nil
}
