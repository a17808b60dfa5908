package analysis

import (
	"sort"

	"scaf/internal/core"
	"scaf/internal/ir"
)

// rootKind classifies a callee's memory roots.
type rootKind int

const (
	rootGlobal rootKind = iota
	rootParam
)

// root is one memory region a function may touch: a global's object, or
// whatever object a parameter points into.
type root struct {
	kind rootKind
	g    *ir.Global
	pidx int
}

// summary is a function's memory effect: the roots it may read and write.
// wild means the effect is unbounded (escaped locals, loaded pointers,
// recursion).
type summary struct {
	reads, writes map[root]bool
	wildRead      bool
	wildWrite     bool

	// The root sets in premise order (see sortedRoots), fixed once the
	// summary is complete: readList, writeList, and their union.
	readList, writeList, allList []root
}

func newSummary() *summary {
	return &summary{reads: map[root]bool{}, writes: map[root]bool{}}
}

// seal fixes the summary's premise-ordered root lists.
func (s *summary) seal() {
	s.readList = sortedRoots(s.reads)
	s.writeList = sortedRoots(s.writes)
	all := make(map[root]bool, len(s.reads)+len(s.writes))
	for r := range s.reads {
		all[r] = true
	}
	for r := range s.writes {
		all[r] = true
	}
	s.allList = sortedRoots(all)
}

// CalleeSummary resolves mod-ref queries involving calls by summarizing
// callee effects bottom-up over the call graph and turning each summary
// root into a premise alias query in the caller's scope. Pure callees
// (empty write set) yield free Ref upper bounds — the pure-function
// reasoning of CAF.
type CalleeSummary struct {
	core.BaseModule
	mod       *ir.Module
	summaries map[*ir.Func]*summary
	escaped   map[*ir.Instr]bool
}

// NewCalleeSummary constructs the module and summarizes every function.
func NewCalleeSummary(mod *ir.Module) *CalleeSummary {
	m := &CalleeSummary{
		mod:       mod,
		summaries: map[*ir.Func]*summary{},
		escaped:   map[*ir.Instr]bool{},
	}
	for _, f := range mod.Funcs {
		f.Instrs(func(in *ir.Instr) {
			if in.IsAllocation() {
				m.escaped[in] = escapes(mod, in)
			}
		})
	}
	inProgress := map[*ir.Func]bool{}
	var summarize func(f *ir.Func) *summary
	summarize = func(f *ir.Func) *summary {
		if s, ok := m.summaries[f]; ok {
			return s
		}
		if inProgress[f] {
			s := newSummary()
			s.wildRead, s.wildWrite = true, true // recursion: give up
			return s
		}
		inProgress[f] = true
		defer delete(inProgress, f)
		s := newSummary()
		f.Instrs(func(in *ir.Instr) {
			switch in.Op {
			case ir.OpLoad:
				m.addAccess(s, in.Args[0], false)
			case ir.OpStore:
				m.addAccess(s, in.Args[1], true)
			case ir.OpFree:
				// free touches allocator metadata of its object
				m.addAccess(s, in.Args[0], true)
			case ir.OpCall:
				if in.Callee == nil {
					return // intrinsics are memory-silent
				}
				cs := summarize(in.Callee)
				m.inline(s, cs, in)
			}
		})
		m.summaries[f] = s
		return s
	}
	for _, f := range mod.Funcs {
		m.summaries[f] = summarize(f)
	}
	for _, s := range m.summaries {
		s.seal()
	}
	return m
}

// addAccess folds one direct access into the summary.
func (m *CalleeSummary) addAccess(s *summary, ptr ir.Value, write bool) {
	d := core.Decompose(ptr)
	var r root
	switch b := d.Base.(type) {
	case *ir.Global:
		r = root{kind: rootGlobal, g: b}
	case *ir.Param:
		r = root{kind: rootParam, pidx: b.Idx}
	case *ir.ConstNull:
		return
	case *ir.Instr:
		if b.IsAllocation() && !m.escaped[b] {
			return // non-escaping local object: invisible to callers
		}
		m.setWild(s, write)
		return
	default:
		m.setWild(s, write)
		return
	}
	if write {
		s.writes[r] = true
	} else {
		s.reads[r] = true
	}
}

func (m *CalleeSummary) setWild(s *summary, write bool) {
	if write {
		s.wildWrite = true
	} else {
		s.wildRead = true
	}
}

// inline substitutes a callee summary at a call site during
// summarization: global roots pass through; param roots map to the
// argument's own root.
func (m *CalleeSummary) inline(s, cs *summary, call *ir.Instr) {
	s.wildRead = s.wildRead || cs.wildRead
	s.wildWrite = s.wildWrite || cs.wildWrite
	sub := func(set map[root]bool, write bool) {
		for r := range set {
			if r.kind == rootGlobal {
				if write {
					s.writes[r] = true
				} else {
					s.reads[r] = true
				}
				continue
			}
			m.addAccess(s, call.Args[r.pidx], write)
		}
	}
	sub(cs.reads, false)
	sub(cs.writes, true)
}

func (m *CalleeSummary) Name() string          { return "callee-summary" }
func (m *CalleeSummary) Kind() core.ModuleKind { return core.MemoryAnalysis }

// rootLoc expresses a summary root as a memory location in the caller's
// scope at a given call site.
func rootLoc(r root, call *ir.Instr) core.MemLoc {
	if r.kind == rootGlobal {
		return core.MemLoc{Ptr: r.g, Size: r.g.Elem.Size()}
	}
	return core.MemLoc{Ptr: call.Args[r.pidx], Size: core.UnknownSize}
}

const maxRootPremises = 24

// extendCtx appends a call site to the query's calling context (§3.2.2):
// premises about a callee's roots are scoped to this call site, letting
// context-sensitive modules (the points-to speculation module) separate
// dynamic instances of the callee's static accesses.
func extendCtx(ctx *core.CallCtx, call *ir.Instr) *core.CallCtx {
	var sites []*ir.Instr
	if ctx != nil {
		sites = append(sites, ctx.Sites...)
	}
	return &core.CallCtx{Sites: append(sites, call)}
}

// sortedRoots orders a root set deterministically: globals by name first,
// then params by index. The premise budget makes evaluation order
// user-visible, so it must be stable.
func sortedRoots(set map[root]bool) []root {
	out := make([]root, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.kind == rootGlobal {
			return a.g.GName < b.g.GName
		}
		return a.pidx < b.pidx
	})
	return out
}

// disjointFromRoots asks whether loc is disjoint from every root of roots.
// It accumulates the premises' assertion options (all must hold).
func (m *CalleeSummary) disjointFromRoots(
	q *core.ModRefQuery, call *ir.Instr, roots []root, loc core.MemLoc, h core.Handle,
	budget *int, opts *[]core.Option, contribs *[]string,
) bool {
	for _, r := range roots {
		if *budget <= 0 {
			return false
		}
		*budget--
		pr := h.PremiseAlias(&core.AliasQuery{
			L1: rootLoc(r, call), L2: loc,
			Rel: q.Rel, Loop: q.Loop, Ctx: extendCtx(q.Ctx, call),
			Desired: core.WantNoAlias,
			DT:      q.DT, PDT: q.PDT,
		})
		if pr.Result != core.NoAlias {
			return false
		}
		aff := core.AffordableOptions(pr.Options)
		if len(aff) == 0 {
			return false
		}
		*opts = core.CrossOptions(*opts, aff)
		*contribs = core.MergeContribs(*contribs, pr.Contribs)
	}
	return true
}

func (m *CalleeSummary) ModRef(q *core.ModRefQuery, h core.Handle) core.ModRefResponse {
	call1 := q.I1 != nil && q.I1.Op == ir.OpCall && q.I1.Callee != nil
	call2 := q.I2 != nil && q.I2.Op == ir.OpCall && q.I2.Callee != nil
	if !call1 && !call2 {
		return core.ModRefConservative()
	}
	budget := maxRootPremises
	opts := core.Unconditional()
	var contribs []string

	// Case 1: I1 is a call — does the callee touch the target footprint?
	if call1 && !call2 {
		s := m.summaries[q.I1.Callee]
		loc, haveLoc := q.TargetLoc()
		mayRef, mayMod := true, true
		if !s.wildRead && (len(s.readList) == 0 || (haveLoc && m.disjointFromRoots(q, q.I1, s.readList, loc, h, &budget, &opts, &contribs))) {
			mayRef = false
		}
		if !s.wildWrite && (len(s.writeList) == 0 || (haveLoc && m.disjointFromRoots(q, q.I1, s.writeList, loc, h, &budget, &opts, &contribs))) {
			mayMod = false
		}
		return m.compose(mayMod, mayRef, opts, contribs)
	}

	// Case 2: I2 is a call — may I1 touch the callee's footprint? The
	// call's footprint is the union of its summary roots.
	if !call1 && call2 {
		s := m.summaries[q.I2.Callee]
		if s.wildRead || s.wildWrite {
			return core.ModRefConservative()
		}
		p1, s1, ok := q.I1.PointerOperand()
		if !ok {
			return core.ModRefConservative()
		}
		loc1 := core.MemLoc{Ptr: p1, Size: s1}
		if len(s.allList) == 0 {
			return core.ModRefFact(core.NoModRef, m.Name())
		}
		if m.disjointFromRoots(q, q.I2, s.allList, loc1, h, &budget, &opts, &contribs) {
			return core.ModRefResponse{Result: core.NoModRef, Options: opts,
				Contribs: core.MergeContribs(core.ContribsOf(m.Name()), contribs)}
		}
		return core.ModRefConservative()
	}

	// Case 3: both calls — pairwise root disjointness.
	s1 := m.summaries[q.I1.Callee]
	s2 := m.summaries[q.I2.Callee]
	if s2.wildRead || s2.wildWrite {
		return core.ModRefConservative()
	}
	// Pairwise: every root of I1 vs every root of I2.
	pairDisjoint := func(roots1 []root) bool {
		for _, r1 := range roots1 {
			for _, r2 := range s2.allList {
				if budget <= 0 {
					return false
				}
				budget--
				pr := h.PremiseAlias(&core.AliasQuery{
					L1: rootLoc(r1, q.I1), L2: rootLoc(r2, q.I2),
					Rel: q.Rel, Loop: q.Loop, Ctx: q.Ctx,
					Desired: core.WantNoAlias,
					DT:      q.DT, PDT: q.PDT,
				})
				if pr.Result != core.NoAlias {
					return false
				}
				aff := core.AffordableOptions(pr.Options)
				if len(aff) == 0 {
					return false
				}
				opts = core.CrossOptions(opts, aff)
				contribs = core.MergeContribs(contribs, pr.Contribs)
			}
		}
		return true
	}
	mayRef := s1.wildRead || !pairDisjoint(s1.readList)
	mayMod := s1.wildWrite || !pairDisjoint(s1.writeList)
	return m.compose(mayMod, mayRef, opts, contribs)
}

func (m *CalleeSummary) compose(mayMod, mayRef bool, opts []core.Option, contribs []string) core.ModRefResponse {
	var res core.ModRefResult
	switch {
	case !mayMod && !mayRef:
		res = core.NoModRef
	case !mayMod:
		res = core.Ref
	case !mayRef:
		res = core.Mod
	default:
		return core.ModRefConservative()
	}
	return core.ModRefResponse{
		Result:   res,
		Options:  opts,
		Contribs: core.MergeContribs(core.ContribsOf(m.Name()), contribs),
	}
}

// ModRefBridge lifts alias answers to mod-ref answers for plain loads and
// stores: NoAlias footprints give NoModRef; otherwise a load is at most
// Ref and a store at most Mod (results are upper bounds, which is what
// lets the Orchestrator's Mod × Ref join fire).
type ModRefBridge struct{ core.BaseModule }

// NewModRefBridge constructs the module.
func NewModRefBridge() *ModRefBridge { return &ModRefBridge{} }

func (m *ModRefBridge) Name() string          { return "modref-bridge" }
func (m *ModRefBridge) Kind() core.ModuleKind { return core.MemoryAnalysis }

func (m *ModRefBridge) ModRef(q *core.ModRefQuery, h core.Handle) core.ModRefResponse {
	if q.I1 == nil {
		return core.ModRefConservative()
	}
	p1, s1, ok := q.I1.PointerOperand()
	if !ok {
		return core.ModRefConservative()
	}
	upper := core.Ref
	if q.I1.Op == ir.OpStore {
		upper = core.Mod
	}
	loc, haveLoc := q.TargetLoc()
	if !haveLoc {
		return core.ModRefFact(upper, m.Name())
	}
	pr := h.PremiseAlias(&core.AliasQuery{
		L1: core.MemLoc{Ptr: p1, Size: s1}, L2: loc,
		Rel: q.Rel, Loop: q.Loop, Ctx: q.Ctx,
		Desired: core.WantNoAlias,
		DT:      q.DT, PDT: q.PDT,
	})
	if pr.Result == core.NoAlias {
		return core.ModRefResponse{
			Result:   core.NoModRef,
			Options:  pr.Options,
			Contribs: core.MergeContribs(core.ContribsOf(m.Name()), pr.Contribs),
		}
	}
	return core.ModRefFact(upper, m.Name())
}
