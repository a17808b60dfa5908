// Package scaf is a from-scratch reproduction of "SCAF: A
// Speculation-Aware Collaborative Dependence Analysis Framework"
// (Apostolakis et al., PLDI 2020).
//
// The package is the public facade over the full stack: the MC mini-C
// front-end and SSA lowering, the IR interpreter and the profilers that
// observe training runs, the CAF memory-analysis ensemble, the six
// speculation modules, and the Orchestrator that lets them collaborate.
//
// Typical use:
//
//	sys, err := scaf.Load("prog", source, scaf.Options{})
//	o := sys.Orchestrator(scaf.SchemeSCAF)
//	for _, loop := range sys.HotLoops() {
//	    res := sys.Client().ResolveLoop(o, loop)
//	    fmt.Printf("%s: %%NoDep = %.1f\n", loop.Name(), res.NoDepPct())
//	}
package scaf

import (
	"fmt"
	"sync"
	"time"

	"scaf/internal/analysis"
	"scaf/internal/cfg"
	"scaf/internal/core"
	"scaf/internal/interp"
	"scaf/internal/ir"
	"scaf/internal/lower"
	"scaf/internal/memspec"
	"scaf/internal/pdg"
	"scaf/internal/profile"
	"scaf/internal/spec"
	"scaf/internal/validate"
)

// Scheme selects how analysis and speculation compose (paper Table 1).
type Scheme int

const (
	// SchemeCAF uses memory analysis only — the collaborative analysis
	// framework of prior work, no speculation.
	SchemeCAF Scheme = iota
	// SchemeConfluence adds the speculation modules but composes by
	// confluence: every technique answers in isolation (premise queries
	// stay within prior-work technique bundles) and the best individual
	// answer wins.
	SchemeConfluence
	// SchemeSCAF is composition by collaboration: premise queries reach
	// every module.
	SchemeSCAF
)

func (s Scheme) String() string {
	switch s {
	case SchemeCAF:
		return "CAF"
	case SchemeConfluence:
		return "Confluence"
	}
	return "SCAF"
}

// Options configures Load.
type Options struct {
	// MaxSteps bounds the profiling run (0: interpreter default).
	MaxSteps int64
	// HotLoops overrides the paper's hot-loop thresholds.
	HotLoops *profile.HotLoopParams
}

// System is a compiled, profiled program ready for dependence analysis.
type System struct {
	Mod      *ir.Module
	Prog     *cfg.Program
	Profiles *profile.Data
	hot      profile.HotLoopParams

	internOnce sync.Once
	intern     *core.Interner

	memdepOnce sync.Once
	memdep     *profile.MemDepProfile // MemSpec's, nil until its first call
	memdepErr  error
}

// Interner returns the system's session-scoped assertion-identity table,
// created on first use. Every orchestrator the system mints without a
// shared cache interns through it, so assertion handles compare equal
// across all of a session's orchestrators.
func (s *System) Interner() *core.Interner {
	s.internOnce.Do(func() { s.intern = core.NewInterner() })
	return s.intern
}

// Compile parses, checks, lowers and SSA-converts MC source.
func Compile(name, source string) (*ir.Module, error) {
	return lower.Compile(name, source)
}

// Load compiles source and runs the profiling ("train input") execution.
func Load(name, source string, opts Options) (*System, error) {
	mod, err := lower.Compile(name, source)
	if err != nil {
		return nil, err
	}
	prog := cfg.NewProgram(mod)
	data, err := profile.Collect(prog, interp.Options{MaxSteps: opts.MaxSteps})
	if err != nil {
		return nil, err
	}
	hot := profile.DefaultHotLoopParams()
	if opts.HotLoops != nil {
		hot = *opts.HotLoops
	}
	return &System{Mod: mod, Prog: prog, Profiles: data, hot: hot}, nil
}

// HotLoops returns the loops the paper evaluates on: ≥10% of execution
// time and ≥50 average iterations per invocation, heaviest first.
func (s *System) HotLoops() []*cfg.Loop { return s.Profiles.HotLoops(s.hot) }

// Client returns a PDG client over the program.
func (s *System) Client() *pdg.Client { return pdg.NewClient(s.Prog) }

// MemSpec returns the memory-speculation baseline. Its first call
// collects the memory-dependence profile the baseline answers from: one
// more run of the program, under the loop tracker and that profiler
// alone, once per System. No session reads the profile, so Load leaves
// it out. The run repeats the training run step for step, so the
// training run's step count is its budget; should it fail all the same,
// the two runs diverged, and MemSpec panics with the run's error rather
// than answer from no profile.
func (s *System) MemSpec() *memspec.MemSpec {
	s.memdepOnce.Do(func() {
		s.memdep, s.memdepErr = collectMemDep(s.Prog, interp.Options{MaxSteps: s.Profiles.Steps})
	})
	if s.memdepErr != nil {
		panic(fmt.Sprintf("scaf: %s: the memory-dependence run failed where the training run passed: %v", s.Prog.Mod.Name, s.memdepErr))
	}
	return memspec.New(s.Profiles, s.memdep)
}

// collectMemDep is MemSpec's profiling run; tests count its calls.
var collectMemDep = profile.CollectMemDep

// Validate re-runs the program with runtime checks enforcing the given
// speculative assertions (the validation half of §4.2.1), reporting every
// misspeculation a client's recovery code would have had to handle. On
// the training input, assertions produced by this framework must validate
// cleanly.
func (s *System) Validate(asserts []core.Assertion) (*validate.Report, error) {
	return validate.Check(s.Prog, s.Profiles, asserts, interp.Options{})
}

// OrchOption customizes an Orchestrator.
type OrchOption func(*core.Config)

// WithLatency records per-query wall-clock latencies (Fig. 10).
func WithLatency() OrchOption {
	return func(c *core.Config) { c.RecordLatency = true }
}

// WithoutDesiredResult strips the desired-result parameter from every
// query (the Fig. 10 ablation).
func WithoutDesiredResult() OrchOption {
	return func(c *core.Config) { c.StripDesired = true }
}

// WithJoin overrides the join policy.
func WithJoin(j core.JoinPolicy) OrchOption {
	return func(c *core.Config) { c.Join = j }
}

// WithBailout overrides the bail-out policy.
func WithBailout(b core.BailoutPolicy) OrchOption {
	return func(c *core.Config) { c.Bailout = b }
}

// WithExtraModules appends additional modules to the ensemble (e.g. a
// custom speculation module; see examples/newmodule).
func WithExtraModules(mods ...core.Module) OrchOption {
	return func(c *core.Config) { c.Modules = append(c.Modules, mods...) }
}

// WithGroupOverrides merges replacement premise-routing groups into the
// scheme's defaults (used by the bundled-confluence ablation).
func WithGroupOverrides(groups map[string]string) OrchOption {
	return func(c *core.Config) {
		for k, v := range groups {
			c.Groups[k] = v
		}
	}
}

// WithCache memoizes query results for the orchestrator's lifetime.
func WithCache() OrchOption {
	return func(c *core.Config) { c.EnableCache = true }
}

// WithSharedCache attaches a concurrency-safe memo cache shared across
// orchestrators — typically the workers of a pdg.ParallelClient. Every
// orchestrator attached to one cache must be built from the same scheme
// and options: cached propositions embed module answers, so sharing a
// cache across configurations returns answers from the wrong ensemble.
func WithSharedCache(sc *core.SharedCache) OrchOption {
	return func(c *core.Config) { c.Shared = sc }
}

// WithRouting overrides the premise-routing policy independently of the
// scheme (the scheme's default is collaborative everywhere except
// SchemeConfluence, which isolates premise queries).
func WithRouting(r core.Routing) OrchOption {
	return func(c *core.Config) { c.Routing = r }
}

// WithModuleOrder overrides the scheme's fixed consult schedule with a
// learned one (applied by name inside core.NewOrchestrator, so it composes
// with WithExtraModules regardless of option order). Consult order is
// visible in answers — pass only orders LearnModuleOrder verified for the
// same scheme and options, or answers may drift from the fixed schedule's.
func WithModuleOrder(order []string) OrchOption {
	return func(c *core.Config) { c.ModuleOrder = order }
}

// WithTimeout bounds each top-level query's search time (the
// compilation-time-sensitive bail-out policy of §3.3).
func WithTimeout(d time.Duration) OrchOption {
	return func(c *core.Config) { c.Timeout = d }
}

// WithTracer attaches a query-resolution tracer (see internal/trace for
// the collector, JSONL schema, and DOT rendering). Tracers are confined to
// one orchestrator, so this option must not be used with
// OrchestratorFactory or ParallelClient — every minted orchestrator would
// share the tracer concurrently. Parallel runs attach per-worker tracers
// through pdg.ParallelClient.NewTracer instead.
func WithTracer(t core.Tracer) OrchOption {
	return func(c *core.Config) { c.Tracer = t }
}

// WithModuleWrapper interposes a rewrite on the final module list (after
// every other option has shaped it) — the seam misspeculation recovery
// uses to filter quarantined assertions at the module boundary
// (recovery.Wrapper). The hook runs inside core.NewOrchestrator, so it
// composes with OrchestratorFactory/ParallelClient as long as the wrapper
// itself is safe to share across workers.
func WithModuleWrapper(wrap func([]core.Module) []core.Module) OrchOption {
	return func(c *core.Config) { c.WrapModules = wrap }
}

// WithPanicIsolation converts a panicking module evaluation into a
// conservative answer plus a Stats.ModulePanics increment instead of a
// crash; onPanic (optional) observes the offender's name and the recovered
// value — the server uses it to quarantine the module. Panicked
// resolutions are tainted and never published to any cache.
func WithPanicIsolation(onPanic func(module string, recovered any)) OrchOption {
	return func(c *core.Config) {
		c.IsolatePanics = true
		c.OnModulePanic = onPanic
	}
}

// WithoutTreeSubstitution disables control speculation's speculative
// dominator-tree premise queries (ablation; its spec-dead rule remains).
func WithoutTreeSubstitution() OrchOption {
	return func(c *core.Config) {
		for _, m := range c.Modules {
			if cs, ok := m.(*spec.ControlSpec); ok {
				cs.DisableTreeSubstitution = true
			}
		}
	}
}

// Orchestrator assembles the module ensemble for a scheme. Each call
// builds fresh module instances, so query caches never leak between
// configurations.
func (s *System) Orchestrator(scheme Scheme, opts ...OrchOption) *core.Orchestrator {
	mods := analysis.DefaultModules(s.Prog)
	groups := analysis.Groups(mods)
	if scheme != SchemeCAF {
		mods = append(mods, spec.DefaultModules(s.Profiles)...)
		for k, v := range spec.Groups() {
			groups[k] = v
		}
	}
	cfgn := core.Config{
		Modules: mods,
		Groups:  groups,
		Join:    core.JoinCheapest,
		Bailout: core.BailDefiniteAffordable,
		Routing: core.RouteCollaborative,
	}
	if scheme == SchemeConfluence {
		cfgn.Routing = core.RouteIsolated
	}
	for _, o := range opts {
		o(&cfgn)
	}
	// A shared cache brings its own interner (handle identity must align
	// with the entries it stores); otherwise all of this system's
	// orchestrators share one session table.
	if cfgn.Interner == nil && cfgn.Shared == nil {
		cfgn.Interner = s.Interner()
	}
	return core.NewOrchestrator(cfgn)
}

// LearnModuleOrder profiles this system's hot loops under the scheme's
// fixed module schedule and proposes a cheaper consult order (high
// settle-rate modules first, within their kind block — see
// core.OrderProfile). The candidate is adopted only if a verification
// re-run over the same loops is answer-identical to the fixed schedule —
// per query the same lattice result, no-dependence verdict, and validation
// cost (pdg.EqualAnswers) — with strictly fewer module evaluations;
// otherwise (nil, false) is returned and the fixed schedule stands.
//
// The returned order is plain data: pass it to later orchestrators of the
// SAME scheme and options via WithModuleOrder, including through
// OrchestratorFactory and ParallelClient. Learning costs two serial
// analyses of the hot loops; a session pays it once.
func (s *System) LearnModuleOrder(scheme Scheme, opts ...OrchOption) ([]string, bool) {
	client := s.Client()
	loops := s.HotLoops()
	mint := func(order []string, tr core.Tracer) *core.Orchestrator {
		o := append(append([]OrchOption(nil), opts...), WithModuleOrder(order))
		if tr != nil {
			o = append(o, WithTracer(tr))
		}
		return s.Orchestrator(scheme, o...)
	}
	return pdg.LearnOrder(client, loops, mint)
}

// OrchestratorFactory returns a mint function suitable for
// pdg.ParallelClient: every call builds an independent Orchestrator (fresh
// module instances included) for the same scheme and options. Options that
// capture stateful values — WithExtraModules with a module instance,
// notably — would share that state across all minted orchestrators and
// must not be used with a factory unless the captured value is safe for
// concurrent use (WithSharedCache is; custom modules usually are not).
func (s *System) OrchestratorFactory(scheme Scheme, opts ...OrchOption) func() *core.Orchestrator {
	return func() *core.Orchestrator { return s.Orchestrator(scheme, opts...) }
}

// ParallelClient returns a PDG client that fans loops out over workers
// goroutines (GOMAXPROCS when workers < 1), each with its own orchestrator
// for the given scheme and options.
func (s *System) ParallelClient(workers int, scheme Scheme, opts ...OrchOption) *pdg.ParallelClient {
	return pdg.NewParallelClient(s.Client(), workers, s.OrchestratorFactory(scheme, opts...))
}
