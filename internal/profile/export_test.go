package profile

import "scaf/internal/ir"

// The views below expose the profilers' unexported query state to the
// external digest test (digest_test.go) as plain maps keyed by exported
// types, so the digest pins what the profiles answer, not how a profiler
// stores it.

// ValueStat is one load's value-profile record.
type ValueStat struct {
	Count     int64
	Value     uint64
	Invariant bool
}

// ValueStats returns every profiled load's record.
func ValueStats(p *ValueProfile) map[*ir.Instr]ValueStat {
	out := map[*ir.Instr]ValueStat{}
	for in, s := range p.stats {
		out[in] = ValueStat{Count: s.count, Value: s.value, Invariant: s.invariant}
	}
	return out
}

// PointsToSets returns every observed pointer's points-to set and count.
func PointsToSets(p *PointsToProfile) (map[ir.Value]map[Site]bool, map[ir.Value]int64) {
	sets, counts := map[ir.Value]map[Site]bool{}, map[ir.Value]int64{}
	for v, st := range p.ptrs {
		sets[v], counts[v] = st.sites, st.count
	}
	return sets, counts
}

// CtxSet is the points-to set of V under the call-site-chain suffix whose
// CtxSuffixHash is Ctx.
type CtxSet struct {
	V     ir.Value
	Ctx   uint64
	Sites map[Site]bool
}

// PointsToCtxSets returns every context-refined points-to set.
func PointsToCtxSets(p *PointsToProfile) []CtxSet {
	var out []CtxSet
	for k, s := range p.ctxSets {
		out = append(out, CtxSet{V: k.v, Ctx: k.ctx, Sites: s})
	}
	return out
}

// ResidueMasks returns every observed pointer's residue mask and count.
func ResidueMasks(p *ResidueProfile) (map[ir.Value]uint16, map[ir.Value]int64) {
	masks, counts := map[ir.Value]uint16{}, map[ir.Value]int64{}
	for v, st := range p.ptrs {
		masks[v], counts[v] = st.mask, st.count
	}
	return masks, counts
}

// LifetimeSets returns the lifetime profiler's four loop-site sets.
func LifetimeSets(p *LifetimeProfile) (roAccessed, roWritten, slAllocated, slViolated map[LoopSite]bool) {
	return p.roAccessed, p.roWritten, p.slAllocated, p.slViolated
}
