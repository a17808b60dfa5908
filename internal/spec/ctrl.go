package spec

import (
	"scaf/internal/cfg"
	"scaf/internal/core"
	"scaf/internal/ir"
	"scaf/internal/profile"
)

// ControlSpec is the control-speculation module (paper §4.2.4). It is
// factored twice over:
//
//  1. speculatively dead instructions (blocks never executed during
//     profiling) cannot source or sink memory dependences, resolving
//     queries directly; and
//  2. it re-issues incoming queries with *speculative* dominator and
//     post-dominator trees — computed on the CFG with never-taken edges
//     removed — so control-flow-sensitive modules (like kill-flow) can
//     resolve them, exactly as in the paper's motivating example.
//
// Validation inserts a misspeculation trigger on each never-taken edge;
// since the branch is computed anyway, the cost is practically zero.
type ControlSpec struct {
	core.BaseModule
	data *profile.Data
	// DisableTreeSubstitution turns off the speculative dominator-tree
	// premise queries (rule 2), leaving only the spec-dead rule — the
	// ablation showing where the motivating example's power comes from.
	DisableTreeSubstitution bool

	specDT  map[*ir.Func]*cfg.Tree
	specPDT map[*ir.Func]*cfg.Tree
	biased  map[*ir.Func][]profile.EdgeKey
	cfgAst  map[*ir.Func]*core.Assertion
}

// NewControlSpec constructs the module from an edge profile.
func NewControlSpec(d *profile.Data) *ControlSpec {
	return &ControlSpec{
		data:    d,
		specDT:  map[*ir.Func]*cfg.Tree{},
		specPDT: map[*ir.Func]*cfg.Tree{},
		biased:  map[*ir.Func][]profile.EdgeKey{},
		cfgAst:  map[*ir.Func]*core.Assertion{},
	}
}

func (m *ControlSpec) Name() string          { return NameControlSpec }
func (m *ControlSpec) Kind() core.ModuleKind { return core.Speculation }

// trees returns the speculative trees of fn, computing them on demand.
// ok is false when fn has no biased edges (speculation cannot help).
func (m *ControlSpec) trees(fn *ir.Func) (dt, pdt *cfg.Tree, ok bool) {
	if t, done := m.specDT[fn]; done {
		return t, m.specPDT[fn], t != nil
	}
	biased := m.data.Edge.BiasedEdges(fn)
	m.biased[fn] = biased
	if len(biased) == 0 {
		m.specDT[fn] = nil
		m.specPDT[fn] = nil
		return nil, nil, false
	}
	dead := map[profile.EdgeKey]bool{}
	for _, e := range biased {
		dead[e] = true
	}
	filter := func(from, to *ir.Block) bool {
		return !dead[profile.EdgeKey{From: from, To: to}]
	}
	dt = cfg.Dominators(fn, filter)
	pdt = cfg.PostDominators(fn, filter)
	m.specDT[fn] = dt
	m.specPDT[fn] = pdt
	return dt, pdt, true
}

// cfgAssertion returns the (free) assertion covering fn's speculative
// control flow: a misspeculation trigger on every never-taken edge.
func (m *ControlSpec) cfgAssertion(fn *ir.Func) core.Assertion {
	if a := m.cfgAst[fn]; a != nil {
		return *a
	}
	a := &core.Assertion{
		Module: NameControlSpec,
		Kind:   "never-taken-edges",
		Cost:   core.CostCtrlCheck,
	}
	for _, e := range m.biased[fn] {
		a.Points = append(a.Points, core.Point{Block: e.From, EdgeTo: e.To})
	}
	m.cfgAst[fn] = a
	return *a
}

// specDead reports whether the instruction is speculatively dead.
func (m *ControlSpec) specDead(in *ir.Instr) bool {
	return in != nil && m.data.Edge.SpecDead(in.Blk)
}

func (m *ControlSpec) ModRef(q *core.ModRefQuery, h core.Handle) core.ModRefResponse {
	if q.I1 == nil {
		return core.ModRefConservative()
	}
	fn := q.I1.Blk.Fn

	// Rule 1: speculatively dead endpoints cannot participate in
	// dependences.
	if m.specDead(q.I1) || m.specDead(q.I2) {
		m.trees(fn) // populate biased-edge list
		return core.ModRefSpec(core.NoModRef, NameControlSpec, m.cfgAssertion(fn))
	}

	// Rule 2: substitute speculative control-flow trees and let the
	// ensemble retry. Modules are agnostic to the trees' provenance.
	if m.DisableTreeSubstitution {
		return core.ModRefConservative()
	}
	dt, pdt, ok := m.trees(fn)
	if !ok || q.DT == dt {
		return core.ModRefConservative() // already speculative, or no bias
	}
	cp := *q
	cp.DT = dt
	cp.PDT = pdt
	pr := h.PremiseModRef(&cp)
	if pr.Result == core.ModRef {
		return core.ModRefConservative()
	}
	aff := core.AffordableOptions(pr.Options)
	if len(aff) == 0 {
		return core.ModRefConservative()
	}
	// The result is now additionally predicated on the speculative CFG.
	withCtrl := core.CrossOptions(aff, []core.Option{{Asserts: []core.Assertion{m.cfgAssertion(fn)}}})
	if len(withCtrl) == 0 {
		return core.ModRefConservative()
	}
	return core.ModRefResponse{
		Result:   pr.Result,
		Options:  withCtrl,
		Contribs: core.MergeContribs(core.ContribsOf(NameControlSpec), pr.Contribs),
	}
}
