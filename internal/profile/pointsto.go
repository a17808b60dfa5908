package profile

import (
	"fmt"
	"hash/fnv"

	"scaf/internal/interp"
	"scaf/internal/ir"
)

// maxCtxSuffix bounds context depth: accesses are attributed to every
// call-site-chain suffix up to this length, so queries can supply partial
// contexts (paper §3.2.2's calling-context parameter).
const maxCtxSuffix = 3

// CtxSuffixHash hashes a call-site chain suffix (innermost last).
func CtxSuffixHash(sites []*ir.Instr) uint64 {
	h := fnv.New64a()
	for _, s := range sites {
		var buf [8]byte
		id := uint64(s.ID)
		for i := 0; i < 8; i++ {
			buf[i] = byte(id >> (8 * uint(i)))
		}
		h.Write(buf[:])
		h.Write([]byte(s.Blk.Fn.Name))
	}
	return h.Sum64()
}

// Site identifies an allocation site: a Malloc/Alloca instruction or a
// global variable. Exactly one field is non-nil.
type Site struct {
	In *ir.Instr
	G  *ir.Global
}

// SiteOf returns the allocation site of an interpreter object.
func SiteOf(o *interp.Object) Site {
	if o.G != nil {
		return Site{G: o.G}
	}
	return Site{In: o.Site}
}

func (s Site) String() string {
	if s.G != nil {
		return "@" + s.G.GName
	}
	if s.In != nil {
		return fmt.Sprintf("%s:%s", s.In.Blk.Fn.Name, s.In)
	}
	return "?"
}

// Size returns the static size of objects allocated at the site, or -1
// when the size is dynamic (malloc with a non-constant byte count).
func (s Site) Size() int64 {
	if s.G != nil {
		return s.G.Elem.Size()
	}
	if s.In != nil {
		switch s.In.Op {
		case ir.OpAlloca:
			return s.In.ElemTy.Size()
		case ir.OpMalloc:
			if n, ok := ir.ConstIntValue(s.In.Args[0]); ok {
				return n
			}
		}
	}
	return -1
}

// PointsToProfile maps pointer SSA values to the allocation sites of the
// objects they were observed addressing (paper §4.2.2, the pointer-to-
// object profiler of speculative separation).
type PointsToProfile struct {
	interp.BaseObserver
	ptrs map[ir.Value]*ptrStat
	// ctxSets refines the sets per call-site-chain suffix, enabling the
	// calling-context query parameter; tracker supplies the chain.
	ctxSets map[ctxKey]map[Site]bool
	tracker *Tracker
	// instrs caches each access instruction's records for the run.
	instrs InstrTable[ptsInstr]
}

// ptrStat is one pointer value's profile: the sites it addressed and how
// many accesses went through it.
type ptrStat struct {
	v     ir.Value
	sites map[Site]bool
	count int64
}

// ptsInstr is one load or store's view of the profile: its pointer's
// record, and the sites and contexts its recent accesses recorded, so an
// access that repeats one of them inserts nothing. Contexts are interned
// by the tracker, so equal pointers mean equal call-site chains.
type ptsInstr struct {
	ptr  *ptrStat
	seen []ptsSeen
}

// ptsSeen is one site and context an instruction has recorded.
type ptsSeen struct {
	site Site
	ctx  *ctxSuffixes
}

// maxPtsSeen bounds an instruction's remembered site-context pairs; an
// instruction that cycles through more of them records some again.
const maxPtsSeen = 8

type ctxKey struct {
	v   ir.Value
	ctx uint64
}

// NewPointsToProfile creates an empty points-to profiler. A nil tracker
// disables context sensitivity.
func NewPointsToProfile(tracker *Tracker) *PointsToProfile {
	return &PointsToProfile{
		ptrs:    map[ir.Value]*ptrStat{},
		ctxSets: map[ctxKey]map[Site]bool{},
		tracker: tracker,
	}
}

// release drops the state only the run needs.
func (p *PointsToProfile) release() { p.tracker, p.instrs = nil, InstrTable[ptsInstr]{} }

func (p *PointsToProfile) record(in *ir.Instr, o *interp.Object) {
	r := p.instrs.At(in)
	if r.ptr == nil {
		ptr, _, ok := in.PointerOperand()
		if !ok {
			return
		}
		if p.ptrs[ptr] == nil {
			p.ptrs[ptr] = &ptrStat{v: ptr, sites: map[Site]bool{}}
		}
		r.ptr = p.ptrs[ptr]
	}
	r.ptr.count++
	site := SiteOf(o)
	var ctx *ctxSuffixes
	if p.tracker != nil {
		ctx = p.tracker.ctxSuffixes()
	}
	for _, sc := range r.seen {
		if sc.site == site && sc.ctx == ctx {
			return
		}
	}
	if len(r.seen) == maxPtsSeen {
		r.seen = r.seen[:0]
	}
	r.seen = append(r.seen, ptsSeen{site, ctx})
	r.ptr.sites[site] = true
	if ctx == nil {
		return
	}
	for k := 0; k < ctx.n; k++ {
		key := ctxKey{v: r.ptr.v, ctx: ctx.h[k]}
		cs := p.ctxSets[key]
		if cs == nil {
			cs = map[Site]bool{}
			p.ctxSets[key] = cs
		}
		cs[site] = true
	}
}

// SitesOfCtx returns the points-to set of v observed under the given
// call-site-chain suffix (innermost last), or nil if never observed there.
func (p *PointsToProfile) SitesOfCtx(v ir.Value, sites []*ir.Instr) map[Site]bool {
	if len(sites) == 0 {
		return p.SitesOf(v)
	}
	if len(sites) > maxCtxSuffix {
		sites = sites[len(sites)-maxCtxSuffix:]
	}
	return p.ctxSets[ctxKey{v: v, ctx: CtxSuffixHash(sites)}]
}

// Events implements interp.Selective.
func (p *PointsToProfile) Events() interp.Event { return interp.LoadEvent | interp.StoreEvent }

func (p *PointsToProfile) Load(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	p.record(in, o)
}

func (p *PointsToProfile) Store(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	p.record(in, o)
}

// SitesOf returns the observed points-to set of pointer value v, or nil
// if v was never observed addressing memory.
func (p *PointsToProfile) SitesOf(v ir.Value) map[Site]bool {
	if st := p.ptrs[v]; st != nil {
		return st.sites
	}
	return nil
}

// Observed reports whether pointer v was exercised during profiling.
func (p *PointsToProfile) Observed(v ir.Value) bool { return len(p.SitesOf(v)) > 0 }

// ExecCount returns how many accesses were observed through v.
func (p *PointsToProfile) ExecCount(v ir.Value) int64 {
	if st := p.ptrs[v]; st != nil {
		return st.count
	}
	return 0
}

// Disjoint reports whether the observed points-to sets of two pointers
// share no allocation site. Both pointers must have been observed.
func (p *PointsToProfile) Disjoint(a, b ir.Value) bool {
	sa, sb := p.SitesOf(a), p.SitesOf(b)
	if len(sa) == 0 || len(sb) == 0 {
		return false
	}
	for s := range sa {
		if sb[s] {
			return false
		}
	}
	return true
}

// OnlySite reports the single allocation site v points to, if exactly one
// was observed.
func (p *PointsToProfile) OnlySite(v ir.Value) (Site, bool) {
	set := p.SitesOf(v)
	if len(set) != 1 {
		return Site{}, false
	}
	for s := range set {
		return s, true
	}
	return Site{}, false
}

// PointsOnlyInto reports whether every observed target of v belongs to the
// given site set.
func (p *PointsToProfile) PointsOnlyInto(v ir.Value, sites map[Site]bool) bool {
	set := p.SitesOf(v)
	if len(set) == 0 {
		return false
	}
	for s := range set {
		if !sites[s] {
			return false
		}
	}
	return true
}
