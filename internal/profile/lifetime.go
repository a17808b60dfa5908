package profile

import (
	"scaf/internal/cfg"
	"scaf/internal/interp"
	"scaf/internal/ir"
)

// LoopSite pairs a loop with an allocation site.
type LoopSite struct {
	Loop *cfg.Loop
	Site Site
}

// LifetimeProfile implements the object-lifetime profiler (paper §4.2.2):
// per target loop it discovers
//
//   - read-only sites: allocation sites whose objects are accessed but
//     never written while the loop is active (including in callees), and
//   - short-lived sites: sites whose every object is allocated and freed
//     within a single iteration of the loop.
type LifetimeProfile struct {
	interp.BaseObserver
	tracker *Tracker

	roAccessed map[LoopSite]bool
	roWritten  map[LoopSite]bool

	slAllocated map[LoopSite]bool
	slViolated  map[LoopSite]bool

	// Run-only state: the loop entries each live object was allocated
	// under, and each access instruction's last site and loop shape.
	objEntries map[*interp.Object][]*LoopEntry
	instrs     InstrTable[lifetimeInstr]
}

// lifetimeInstr is the site and loop shape of an instruction's last
// access; an access that repeats both marks nothing new.
type lifetimeInstr struct {
	seen  bool
	site  Site
	shape uint64
}

// NewLifetimeProfile creates a lifetime profiler reading loop state from
// tracker. It registers itself for iteration boundaries.
func NewLifetimeProfile(tracker *Tracker) *LifetimeProfile {
	p := &LifetimeProfile{
		tracker:     tracker,
		roAccessed:  map[LoopSite]bool{},
		roWritten:   map[LoopSite]bool{},
		slAllocated: map[LoopSite]bool{},
		slViolated:  map[LoopSite]bool{},
		objEntries:  map[*interp.Object][]*LoopEntry{},
	}
	tracker.AddIterListener(p)
	return p
}

// release drops the state only the run needs.
func (p *LifetimeProfile) release() {
	p.tracker, p.objEntries, p.instrs = nil, nil, InstrTable[lifetimeInstr]{}
}

// repeats reports whether in's access of site marks exactly what its
// previous access marked: the same site under the same active loops.
func (p *LifetimeProfile) repeats(in *ir.Instr, site Site) bool {
	r, shape := p.instrs.At(in), p.tracker.Shape()
	if r.seen && r.site == site && r.shape == shape {
		return true
	}
	*r = lifetimeInstr{seen: true, site: site, shape: shape}
	return false
}

// Events implements interp.Selective.
func (p *LifetimeProfile) Events() interp.Event {
	return interp.LoadEvent | interp.StoreEvent | interp.AllocEvent | interp.FreeEvent
}

func (p *LifetimeProfile) Load(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	site := SiteOf(o)
	if p.repeats(in, site) {
		return
	}
	p.tracker.ActiveLoops(in, func(e *LoopEntry, rep *ir.Instr) {
		p.roAccessed[LoopSite{e.Loop, site}] = true
	})
}

func (p *LifetimeProfile) Store(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	site := SiteOf(o)
	if p.repeats(in, site) {
		return
	}
	p.tracker.ActiveLoops(in, func(e *LoopEntry, rep *ir.Instr) {
		k := LoopSite{e.Loop, site}
		p.roAccessed[k] = true
		p.roWritten[k] = true
	})
}

func (p *LifetimeProfile) Alloc(o *interp.Object) {
	site := SiteOf(o)
	p.tracker.ActiveLoops(nil, func(e *LoopEntry, rep *ir.Instr) {
		p.slAllocated[LoopSite{e.Loop, site}] = true
		if e.liveObjs == nil {
			e.liveObjs = map[*interp.Object]bool{}
		}
		e.liveObjs[o] = true
		p.objEntries[o] = append(p.objEntries[o], e)
	})
}

func (p *LifetimeProfile) Free(in *ir.Instr, o *interp.Object) {
	for _, e := range p.objEntries[o] {
		if e.liveObjs != nil {
			delete(e.liveObjs, o)
		}
	}
	delete(p.objEntries, o)
}

// IterEnd marks every object that survived the ending iteration as a
// short-lived violation for its site.
func (p *LifetimeProfile) IterEnd(e *LoopEntry) {
	for o := range e.liveObjs {
		p.slViolated[LoopSite{e.Loop, SiteOf(o)}] = true
	}
}

// LoopExit is part of IterListener; iteration cleanup already happened.
func (p *LifetimeProfile) LoopExit(e *LoopEntry) {}

// ReadOnly reports whether objects of site were accessed but never written
// while loop was active.
func (p *LifetimeProfile) ReadOnly(loop *cfg.Loop, site Site) bool {
	k := LoopSite{loop, site}
	return p.roAccessed[k] && !p.roWritten[k]
}

// ReadOnlySites lists the read-only sites of a loop.
func (p *LifetimeProfile) ReadOnlySites(loop *cfg.Loop) []Site {
	var out []Site
	for k := range p.roAccessed {
		if k.Loop == loop && !p.roWritten[k] {
			out = append(out, k.Site)
		}
	}
	return out
}

// ShortLived reports whether every object of site observed under loop was
// allocated and freed within one iteration.
func (p *LifetimeProfile) ShortLived(loop *cfg.Loop, site Site) bool {
	k := LoopSite{loop, site}
	return p.slAllocated[k] && !p.slViolated[k]
}

// ShortLivedSites lists the short-lived sites of a loop.
func (p *LifetimeProfile) ShortLivedSites(loop *cfg.Loop) []Site {
	var out []Site
	for k := range p.slAllocated {
		if k.Loop == loop && !p.slViolated[k] {
			out = append(out, k.Site)
		}
	}
	return out
}
