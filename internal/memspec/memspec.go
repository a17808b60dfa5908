// Package memspec implements the memory-speculation baseline (paper §5):
// the most general but most expensive speculation technique. It asserts
// the absence of every dependence that did not manifest under the
// loop-sensitive memory-dependence profiler, validated by shadow-memory
// checks on every guarded access (Fig. 7b).
package memspec

import (
	"scaf/internal/cfg"
	"scaf/internal/core"
	"scaf/internal/ir"
	"scaf/internal/profile"
)

// Name is the module/assertion identifier.
const Name = "memory-spec"

// MemSpec answers mod-ref queries from the memory-dependence profile.
// It can be used directly (NoDep) or plugged into an Orchestrator as a
// module — the paper keeps it out of SCAF's ensemble because its
// validation cost defeats the purpose, and so do we by default.
type MemSpec struct {
	core.BaseModule
	data *profile.Data
	dep  *profile.MemDepProfile
}

// New creates the baseline from the training run's profiles and the
// memory-dependence profile of the same execution (profile.CollectMemDep).
func New(d *profile.Data, dep *profile.MemDepProfile) *MemSpec {
	return &MemSpec{data: d, dep: dep}
}

func (m *MemSpec) Name() string          { return Name }
func (m *MemSpec) Kind() core.ModuleKind { return core.Speculation }

// NoDep reports whether no dependence i1→i2 with the given temporal
// relation manifested during profiling within loop l.
func (m *MemSpec) NoDep(l *cfg.Loop, i1, i2 *ir.Instr, rel core.TemporalRelation) bool {
	return !m.dep.Observed(l, i1, i2, rel == core.Before)
}

// execCount estimates how often instruction in accessed memory.
func (m *MemSpec) execCount(in *ir.Instr) int64 {
	if ptr, _, ok := in.PointerOperand(); ok {
		if c := m.data.PointsTo.ExecCount(ptr); c > 0 {
			return c
		}
	}
	// Calls and unprofiled ops: approximate with the block count.
	return m.data.Edge.BlockCount[in.Blk]
}

// Assertion prices the shadow-memory validation for a speculated pair.
func (m *MemSpec) Assertion(i1, i2 *ir.Instr) core.Assertion {
	return core.Assertion{
		Module: Name,
		Kind:   "shadow-memory",
		Points: []core.Point{{Instr: i1}, {Instr: i2}},
		Cost:   core.CostMemSpecCheck * float64(m.execCount(i1)+m.execCount(i2)),
	}
}

func (m *MemSpec) ModRef(q *core.ModRefQuery, h core.Handle) core.ModRefResponse {
	if q.Loop == nil || q.I1 == nil || q.I2 == nil {
		return core.ModRefConservative()
	}
	if m.NoDep(q.Loop, q.I1, q.I2, q.Rel) {
		return core.ModRefSpec(core.NoModRef, Name, m.Assertion(q.I1, q.I2))
	}
	return core.ModRefConservative()
}
