package analysis

import (
	"scaf/internal/cfg"
	"scaf/internal/core"
	"scaf/internal/ir"
)

// escapes computes whether the address rooted at root (a global or an
// allocation instruction) is captured: stored as a value, passed to a
// call, or returned. Pointers derived by Index/Field/Bitcast/Phi are
// tracked; plain loads/stores through derived pointers do not capture.
func escapes(mod *ir.Module, root ir.Value) bool {
	derived := map[ir.Value]bool{root: true}
	captured := false
	for changed := true; changed && !captured; {
		changed = false
		for _, f := range mod.Funcs {
			f.Instrs(func(in *ir.Instr) {
				if captured {
					return
				}
				touches := false
				for _, a := range in.Args {
					if derived[a] {
						touches = true
						break
					}
				}
				if !touches {
					return
				}
				switch in.Op {
				case ir.OpIndex, ir.OpField, ir.OpCast, ir.OpPhi:
					if !derived[in] {
						derived[in] = true
						changed = true
					}
				case ir.OpLoad:
					// reading through the pointer: fine
				case ir.OpStore:
					if derived[in.Args[0]] {
						captured = true // address stored into memory
					}
				case ir.OpFree:
					// freeing does not publish the address
				case ir.OpCmp, ir.OpBin:
					// comparisons/arithmetic on addresses do not publish
					// them as access paths (no pointer is materialized:
					// MC cannot cast integers back to pointers)
				case ir.OpCall, ir.OpRet:
					captured = true
				default:
					captured = true
				}
			})
		}
	}
	return captured
}

// indirectBase reports whether a pointer base is of indirect provenance:
// loaded from memory, received as a parameter, or returned by a call.
// Such pointers can only hold captured addresses.
func indirectBase(v ir.Value) bool {
	switch x := v.(type) {
	case *ir.Param:
		return true
	case *ir.Instr:
		return x.Op == ir.OpLoad || (x.Op == ir.OpCall && x.Callee != nil)
	}
	return false
}

// NoCaptureGlobal disproves aliasing between a never-captured global and
// any pointer of indirect provenance: if the global's address is never
// stored, passed, or returned, no loaded/parameter/returned pointer can
// point into it (one of CAF's reachability algorithms, §4.2.4).
type NoCaptureGlobal struct {
	core.BaseModule
	nonCaptured map[*ir.Global]bool
}

// NewNoCaptureGlobal constructs the module, classifying every global.
func NewNoCaptureGlobal(mod *ir.Module) *NoCaptureGlobal {
	m := &NoCaptureGlobal{nonCaptured: map[*ir.Global]bool{}}
	for _, g := range mod.Globals {
		m.nonCaptured[g] = !escapes(mod, g)
	}
	return m
}

func (m *NoCaptureGlobal) Name() string          { return "no-capture-global" }
func (m *NoCaptureGlobal) Kind() core.ModuleKind { return core.MemoryAnalysis }

// disjointFromIndirect checks one direction: L1 rooted at a non-captured
// object, L2 of entirely indirect provenance.
func disjointFromIndirect(isProtected func(ir.Value) bool, p1, p2 ir.Value) bool {
	d1 := core.Decompose(p1)
	if !isProtected(d1.Base) {
		return false
	}
	bases, complete := core.UnderlyingBases(p2, phiWalkLimit)
	if !complete || len(bases) == 0 {
		return false
	}
	for _, b := range bases {
		if b == d1.Base {
			return false
		}
		// Indirect provenance or a *different* allocation object both
		// exclude pointing into the protected object.
		if !indirectBase(b) && !core.IsAllocationBase(b) {
			return false
		}
	}
	return true
}

func (m *NoCaptureGlobal) Alias(q *core.AliasQuery, h core.Handle) core.AliasResponse {
	prot := func(v ir.Value) bool {
		g, ok := v.(*ir.Global)
		return ok && m.nonCaptured[g]
	}
	if disjointFromIndirect(prot, q.L1.Ptr, q.L2.Ptr) ||
		disjointFromIndirect(prot, q.L2.Ptr, q.L1.Ptr) {
		return core.AliasFact(core.NoAlias, m.Name())
	}
	return core.MayAliasResponse()
}

// NoCaptureSource is the allocation-site analogue of NoCaptureGlobal: a
// malloc/alloca whose result never escapes cannot be the target of any
// indirect pointer.
type NoCaptureSource struct {
	core.BaseModule
	nonCaptured map[*ir.Instr]bool
}

// NewNoCaptureSource constructs the module, classifying every allocation
// site in the module.
func NewNoCaptureSource(mod *ir.Module) *NoCaptureSource {
	m := &NoCaptureSource{nonCaptured: map[*ir.Instr]bool{}}
	for _, f := range mod.Funcs {
		f.Instrs(func(in *ir.Instr) {
			if in.IsAllocation() {
				m.nonCaptured[in] = !escapes(mod, in)
			}
		})
	}
	return m
}

func (m *NoCaptureSource) Name() string          { return "no-capture-src" }
func (m *NoCaptureSource) Kind() core.ModuleKind { return core.MemoryAnalysis }

func (m *NoCaptureSource) Alias(q *core.AliasQuery, h core.Handle) core.AliasResponse {
	prot := func(v ir.Value) bool {
		in, ok := v.(*ir.Instr)
		return ok && m.nonCaptured[in]
	}
	if disjointFromIndirect(prot, q.L1.Ptr, q.L2.Ptr) ||
		disjointFromIndirect(prot, q.L2.Ptr, q.L1.Ptr) {
		return core.AliasFact(core.NoAlias, m.Name())
	}
	return core.MayAliasResponse()
}

// GlobalMalloc reasons about which object addresses a pointer-typed
// global can hold: when every store into a non-captured global deposits
// either null or a pointer from a known set of malloc sites, a pointer
// loaded from that global can only address objects of those sites.
//
// It is factored: stores of unknown values are not fatal — the module
// asks the ensemble (via a premise mod-ref query) whether the offending
// store can be discounted; control speculation answers for speculatively
// dead stores (paper §4.2.4).
type GlobalMalloc struct {
	core.BaseModule
	mod    *ir.Module
	stores map[*ir.Global][]*ir.Instr // direct stores into each global
	capt   map[*ir.Global]bool
	cache  map[globalMallocKey]*gmResult
}

type globalMallocKey struct {
	g  *ir.Global
	dt *cfg.Tree // identity of the control-flow view the answer assumed
}

func (m *GlobalMalloc) Name() string          { return "global-malloc" }
func (m *GlobalMalloc) Kind() core.ModuleKind { return core.MemoryAnalysis }

type gmResult struct {
	ok       bool
	sites    map[*ir.Instr]bool // malloc sites storable into g
	options  []core.Option
	contribs []string
}

// NewGlobalMalloc constructs the module, indexing stores into globals.
func NewGlobalMalloc(mod *ir.Module) *GlobalMalloc {
	m := &GlobalMalloc{
		mod:    mod,
		stores: map[*ir.Global][]*ir.Instr{},
		capt:   map[*ir.Global]bool{},
		cache:  map[globalMallocKey]*gmResult{},
	}
	for _, g := range mod.Globals {
		if !ir.IsPointer(g.Elem) {
			continue
		}
		m.capt[g] = escapes(mod, g)
	}
	for _, f := range mod.Funcs {
		f.Instrs(func(in *ir.Instr) {
			if in.Op != ir.OpStore {
				return
			}
			if g, ok := in.Args[1].(*ir.Global); ok && ir.IsPointer(g.Elem) {
				m.stores[g] = append(m.stores[g], in)
			}
		})
	}
	return m
}

// classify resolves the storable-site set of g under the query's
// control-flow view, consulting the ensemble for unknown stores.
func (m *GlobalMalloc) classify(g *ir.Global, q *core.AliasQuery, h core.Handle) *gmResult {
	key := globalMallocKey{g: g, dt: q.DT}
	if r, ok := m.cache[key]; ok {
		return r
	}
	res := &gmResult{sites: map[*ir.Instr]bool{}, options: core.Unconditional()}
	m.cache[key] = res
	if m.capt[g] {
		return res // stores through aliases possible: property unknowable
	}
	res.ok = true
	for _, st := range m.stores[g] {
		d := core.Decompose(st.Args[0])
		if _, isNull := d.Base.(*ir.ConstNull); isNull && d.Off == 0 {
			continue
		}
		if in, isIn := d.Base.(*ir.Instr); isIn && in.Op == ir.OpMalloc && d.Off == 0 && d.KnownOff {
			res.sites[in] = true
			continue
		}
		// Unknown value stored: ask the ensemble whether this store can be
		// discounted (e.g. it is speculatively dead).
		pr := h.PremiseModRef(&core.ModRefQuery{
			I1:  st,
			Loc: core.MemLoc{Ptr: g, Size: g.Elem.Size()},
			Rel: core.Same,
			DT:  q.DT, PDT: q.PDT,
		})
		if pr.Result == core.NoModRef && len(core.AffordableOptions(pr.Options)) > 0 {
			res.options = core.CrossOptions(res.options, core.AffordableOptions(pr.Options))
			res.contribs = core.MergeContribs(res.contribs, pr.Contribs)
			continue
		}
		res.ok = false
		return res
	}
	return res
}

// loadedFromGlobal matches pointers whose base is a direct load of g.
func loadedFromGlobal(p ir.Value) (*ir.Global, bool) {
	d := core.Decompose(p)
	ld, ok := d.Base.(*ir.Instr)
	if !ok || ld.Op != ir.OpLoad {
		return nil, false
	}
	g, ok := ld.Args[0].(*ir.Global)
	return g, ok
}

func (m *GlobalMalloc) Alias(q *core.AliasQuery, h core.Handle) core.AliasResponse {
	try := func(p1, p2 ir.Value) (core.AliasResponse, bool) {
		g, ok := loadedFromGlobal(p1)
		if !ok {
			return core.AliasResponse{}, false
		}
		cls := m.classify(g, q, h)
		if !cls.ok {
			return core.AliasResponse{}, false
		}
		// p1 points into one of cls.sites' objects (or is null). If p2 is
		// rooted at a different allocation, the footprints are disjoint.
		d2 := core.Decompose(p2)
		if !core.IsAllocationBase(d2.Base) {
			// Or rooted at a different global's disjoint site set.
			if g2, ok2 := loadedFromGlobal(p2); ok2 && g2 != g {
				cls2 := m.classify(g2, q, h)
				if cls2.ok && disjointSites(cls.sites, cls2.sites) {
					return core.AliasResponse{
						Result:   core.NoAlias,
						Options:  core.CrossOptions(cls.options, cls2.options),
						Contribs: core.MergeContribs(core.ContribsOf(m.Name()), cls.contribs, cls2.contribs),
					}, true
				}
			}
			return core.AliasResponse{}, false
		}
		if in, isIn := d2.Base.(*ir.Instr); isIn && cls.sites[in] {
			// p2 is the allocation-site representative of (one of) the
			// site(s) storable into g. When it is the ONLY storable site
			// and p2 denotes the whole object, p1's footprint is contained
			// in it: the SubAlias answer factored modules feed on.
			if len(cls.sites) == 1 && d2.Off == 0 && d2.KnownOff {
				return core.AliasResponse{
					Result:   core.SubAlias,
					Options:  cls.options,
					Contribs: core.MergeContribs(core.ContribsOf(m.Name()), cls.contribs),
				}, true
			}
			return core.AliasResponse{}, false // same site: may alias
		}
		return core.AliasResponse{
			Result:   core.NoAlias,
			Options:  cls.options,
			Contribs: core.MergeContribs(core.ContribsOf(m.Name()), cls.contribs),
		}, true
	}
	if r, ok := try(q.L1.Ptr, q.L2.Ptr); ok {
		return r
	}
	if r, ok := try(q.L2.Ptr, q.L1.Ptr); ok {
		if r.Result == core.SubAlias {
			// Containment is directional (L1 ⊆ L2); the flipped finding
			// cannot be reported.
			return core.MayAliasResponse()
		}
		return r
	}
	return core.MayAliasResponse()
}

func disjointSites(a, b map[*ir.Instr]bool) bool {
	for s := range a {
		if b[s] {
			return false
		}
	}
	return true
}
