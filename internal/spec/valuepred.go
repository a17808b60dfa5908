package spec

import (
	"scaf/internal/core"
	"scaf/internal/ir"
	"scaf/internal/profile"
)

// ValuePred is the value-prediction module (paper §4.2.4): loads that
// returned one single value during profiling are predictable. Dependences
// that sink into or source from a predictable load disappear (the client
// replaces the load's consumers with the prediction and validates with a
// compare). Additionally, a predictable load that post-dominates a
// dependence's source and dominates its destination acts as a kill: the
// module issues MustAlias premise queries against both footprints.
type ValuePred struct {
	core.BaseModule
	data *profile.Data
}

// NewValuePred constructs the module.
func NewValuePred(d *profile.Data) *ValuePred { return &ValuePred{data: d} }

func (m *ValuePred) Name() string          { return NameValuePred }
func (m *ValuePred) Kind() core.ModuleKind { return core.Speculation }

// predictable reports whether in is a profiled-invariant load.
func (m *ValuePred) predictable(in *ir.Instr) bool {
	if in == nil || in.Op != ir.OpLoad {
		return false
	}
	_, ok := m.data.Value.Predictable(in)
	return ok
}

// checkAssertion is the value-check validation for load ld.
func (m *ValuePred) checkAssertion(ld *ir.Instr) core.Assertion {
	return core.Assertion{
		Module: NameValuePred,
		Kind:   "value-check",
		Points: []core.Point{{Instr: ld}},
		Cost:   core.CostValueCheck * float64(m.data.Value.ExecCount(ld)),
	}
}

// mustCover asks the ensemble whether two locations are the same
// (MustAlias). Per the paper's module design, value prediction never
// reasons about footprints itself — even syntactic identity goes through
// a premise query, making every kill a collaboration.
func (m *ValuePred) mustCover(q *core.ModRefQuery, a, b core.MemLoc, h core.Handle) (bool, []core.Option, []string) {
	pr := h.PremiseAlias(&core.AliasQuery{
		L1: a, L2: b,
		Rel: core.Same, Loop: q.Loop, Ctx: q.Ctx,
		Desired: core.WantMustAlias,
		DT:      q.DT, PDT: q.PDT,
	})
	if pr.Result == core.MustAlias {
		if aff := core.AffordableOptions(pr.Options); len(aff) > 0 {
			return true, aff, pr.Contribs
		}
	}
	return false, nil, nil
}

func (m *ValuePred) ModRef(q *core.ModRefQuery, h core.Handle) core.ModRefResponse {
	if q.I1 == nil || q.Loop == nil {
		return core.ModRefConservative()
	}

	// Dependences sinking into or sourcing from a predictable load vanish.
	if m.predictable(q.I2) {
		return core.ModRefSpec(core.NoModRef, NameValuePred, m.checkAssertion(q.I2))
	}
	if m.predictable(q.I1) {
		return core.ModRefSpec(core.NoModRef, NameValuePred, m.checkAssertion(q.I1))
	}

	// Kill via prediction: P post-dominates the source and dominates the
	// destination; its footprint must-aliases either endpoint's footprint.
	if q.I2 == nil || q.DT == nil || q.PDT == nil {
		return core.ModRefConservative()
	}
	fp1 := core.MemLoc{Size: core.UnknownSize}
	if p, s, ok := q.I1.PointerOperand(); ok {
		fp1 = core.MemLoc{Ptr: p, Size: s}
	}
	fp2, have2 := q.TargetLoc()

	for _, b := range q.I1.Blk.Fn.Blocks {
		if !q.Loop.Contains(b) {
			continue
		}
		for _, p := range b.Instrs {
			if p == q.I1 || p == q.I2 || !m.predictable(p) {
				continue
			}
			if !q.PDT.DominatesInstr(p, q.I1) || !q.DT.DominatesInstr(p, q.I2) {
				continue
			}
			pp, ps, _ := p.PointerOperand()
			ploc := core.MemLoc{Ptr: pp, Size: ps}
			for _, loc := range []core.MemLoc{fp1, fp2} {
				if loc.Ptr == nil {
					continue
				}
				if !have2 && loc.Ptr == fp2.Ptr {
					continue
				}
				if ok, opts, contribs := m.mustCover(q, ploc, loc, h); ok {
					withCheck := core.CrossOptions(opts,
						[]core.Option{{Asserts: []core.Assertion{m.checkAssertion(p)}}})
					if len(withCheck) == 0 {
						continue
					}
					return core.ModRefResponse{
						Result:   core.NoModRef,
						Options:  withCheck,
						Contribs: core.MergeContribs(core.ContribsOf(NameValuePred), contribs),
					}
				}
			}
		}
	}
	return core.ModRefConservative()
}
