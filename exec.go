package scaf

import (
	"scaf/internal/core"
	"scaf/internal/pdg"
	"scaf/internal/recovery"
	"scaf/internal/runtime"
)

// Plan builds the global validation plan (§3.4) a session create
// validates and ExecutePlan runs. One orchestrator of the scheme, joining
// every option and searching exhaustively (so the planner sees real
// alternatives) and then shaped by opts, resolves every hot loop, and each
// loop gets its pdg.Plan. Plan returns the per-loop plans and the union of
// their assertions, deduplicated by String(), in loop order.
func (s *System) Plan(scheme Scheme, opts ...OrchOption) ([]runtime.LoopPlan, []core.Assertion) {
	o := s.Orchestrator(scheme, append([]OrchOption{
		WithJoin(core.JoinAll), WithBailout(core.BailExhaustive)}, opts...)...)
	client := s.Client()
	var plans []runtime.LoopPlan
	var asserts []core.Assertion
	seen := map[string]bool{}
	for _, l := range s.HotLoops() {
		res := client.ResolveLoop(o, l)
		p := pdg.BuildPlan(res.Queries)
		plans = append(plans, runtime.LoopPlan{Loop: l, Res: res, Plan: p})
		for _, a := range p.Assertions {
			if k := a.String(); !seen[k] {
				seen[k] = true
				asserts = append(asserts, a)
			}
		}
	}
	return plans, asserts
}

// ExecutePlan closes the loop from analysis to execution: it plans the
// hot loops under the scheme (Plan) and runs the program with
// internal/runtime — loops the plans mark DOALL execute their iterations
// chunked across workers against journaled memory views, validated at
// commit time. A misspeculation quarantines the disproved assertions,
// invalidates predicated shared-cache entries, re-plans through the
// quarantine filter, and re-executes the losing range serially, so the
// reported output is always equal to a serial interpretation.
//
// cfg's Quarantine, Cache, and Replan are filled in when nil (fresh
// quarantine, fresh shared cache with the quarantine as revoker, and a
// re-run of Plan under the same scheme and options).
// Additional orchestrator options (chaos injection, ablations) apply to
// both the initial analysis and every re-plan.
func (s *System) ExecutePlan(scheme Scheme, cfg runtime.Config, opts ...OrchOption) (*runtime.Report, error) {
	q := cfg.Quarantine
	if q == nil {
		q = recovery.New()
		cfg.Quarantine = q
	}
	sc := cfg.Cache
	if sc == nil {
		sc = core.NewSharedCache()
		cfg.Cache = sc
	}
	sc.SetRevoker(q)
	allOpts := append([]OrchOption{
		WithSharedCache(sc),
		WithModuleWrapper(recovery.Wrapper(q)),
	}, opts...)
	analyze := func() []runtime.LoopPlan {
		plans, _ := s.Plan(scheme, allOpts...)
		return plans
	}
	if cfg.Replan == nil {
		cfg.Replan = analyze
	}
	return runtime.Execute(s.Prog, analyze(), cfg)
}
