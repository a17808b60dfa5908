package spec

import (
	"sort"

	"scaf/internal/cfg"
	"scaf/internal/core"
	"scaf/internal/ir"
	"scaf/internal/profile"
)

// sortSites orders sites deterministically (profile maps are unordered).
func sortSites(s []profile.Site) []profile.Site {
	sort.Slice(s, func(i, j int) bool { return s[i].String() < s[j].String() })
	return s
}

// sitePoint converts an allocation site to an assertion point.
func sitePoint(s profile.Site) core.Point {
	if s.G != nil {
		return core.Point{G: s.G}
	}
	return core.Point{Instr: s.In}
}

// siteRepValue is the IR value representing a site's object(s).
func siteRepValue(s profile.Site) ir.Value {
	if s.G != nil {
		return s.G
	}
	return s.In
}

// containment resolves "is loc fully inside one of sites' objects?" by
// issuing premise alias queries against allocation-site representatives —
// the collaboration idiom of §4.2.3/§4.2.4. On success it returns the
// premise's assertion options with points-to assertions stripped (the
// caller replaces them with its own cheap validation, exactly as the
// paper prescribes), plus whether the containment was proven for free by
// memory analysis (MustAlias with an empty option), which lets the caller
// skip heap checks entirely.
func containment(
	q *core.ModRefQuery, loc core.MemLoc, sites []profile.Site, h core.Handle,
) (site profile.Site, opts []core.Option, contribs []string, free, ok bool) {
	for _, s := range sites {
		rep := core.MemLoc{Ptr: siteRepValue(s), Size: s.Size()}
		if rep.Size == 0 {
			rep.Size = core.UnknownSize
		}
		pr := h.PremiseAlias(&core.AliasQuery{
			L1: loc, L2: rep,
			Rel: core.Same, Loop: q.Loop, Ctx: q.Ctx,
			Desired: core.WantMustAlias,
			DT:      q.DT, PDT: q.PDT,
		})
		if pr.Result != core.MustAlias && pr.Result != core.SubAlias {
			continue
		}
		stripped := stripPointsTo(pr.Options)
		if len(stripped) == 0 {
			continue
		}
		return s, stripped, pr.Contribs, pr.Result == core.MustAlias && core.HasFree(pr.Options), true
	}
	return profile.Site{}, nil, nil, false, false
}

// stripPointsTo removes prohibitively-priced points-to assertions from
// each option: the factored module's own heap separation subsumes them
// (§4.2.3: "these modules can safely ignore the expensive-to-validate
// points-to speculation assertion ... and replace it with their own").
func stripPointsTo(opts []core.Option) []core.Option {
	var out []core.Option
	for _, o := range opts {
		kept := core.Option{}
		for _, a := range o.Asserts {
			if a.Module == NamePointsTo {
				continue
			}
			kept.Asserts = append(kept.Asserts, a)
		}
		out = append(out, kept)
	}
	return core.CheapestOf(out)
}

// ReadOnly is the read-only module (§4.2.4): allocation sites whose
// objects are never written while the target loop runs. Validation
// separates those objects into a read-only heap; pointer heap checks are
// skipped when memory analysis already proves the footprint's identity
// (MustAlias at zero cost). Read-only assertions re-allocate the site, so
// they conflict with any other assertion touching the same site.
type ReadOnly struct {
	core.BaseModule
	data  *profile.Data
	cache map[*cfg.Loop][]profile.Site
}

// NewReadOnly constructs the module.
func NewReadOnly(d *profile.Data) *ReadOnly {
	return &ReadOnly{data: d, cache: map[*cfg.Loop][]profile.Site{}}
}

func (m *ReadOnly) Name() string          { return NameReadOnly }
func (m *ReadOnly) Kind() core.ModuleKind { return core.Speculation }

func (m *ReadOnly) sites(l *cfg.Loop) []profile.Site {
	if s, ok := m.cache[l]; ok {
		return s
	}
	s := sortSites(m.data.Lifetime.ReadOnlySites(l))
	m.cache[l] = s
	return s
}

// assertion builds the ro-heap assertion for a site. The loop header
// travels as a transform point so the validation transform (and our
// runtime monitor) knows the window in which the heap is protected.
func (m *ReadOnly) assertion(l *cfg.Loop, s profile.Site, guarded ir.Value, free bool) core.Assertion {
	cost := 0.0
	if !free {
		cost = core.CostHeapCheck * float64(m.data.PointsTo.ExecCount(guarded))
	}
	return core.Assertion{
		Module:    NameReadOnly,
		Kind:      "ro-heap",
		Points:    []core.Point{sitePoint(s), {Block: l.Header}},
		Conflicts: []core.Point{sitePoint(s)},
		Cost:      cost,
	}
}

func (m *ReadOnly) ModRef(q *core.ModRefQuery, h core.Handle) core.ModRefResponse {
	if q.Loop == nil || q.I1 == nil {
		return core.ModRefConservative()
	}
	sites := m.sites(q.Loop)
	if len(sites) == 0 {
		return core.ModRefConservative()
	}

	build := func(res core.ModRefResult, s profile.Site, guarded ir.Value, opts []core.Option, contribs []string, free bool) core.ModRefResponse {
		withRO := core.CrossOptions(opts, []core.Option{{Asserts: []core.Assertion{m.assertion(q.Loop, s, guarded, free)}}})
		if len(withRO) == 0 {
			return core.ModRefConservative()
		}
		return core.ModRefResponse{
			Result:   res,
			Options:  withRO,
			Contribs: core.MergeContribs(core.ContribsOf(NameReadOnly), contribs),
		}
	}

	// Case A: the target footprint lies in read-only memory. Writes cannot
	// touch it: a store gets NoModRef, a writing call still may read (Ref).
	if loc, have := q.TargetLoc(); have {
		if s, opts, contribs, free, ok := containment(q, loc, sites, h); ok {
			if q.I1.Op == ir.OpStore {
				return build(core.NoModRef, s, loc.Ptr, opts, contribs, free)
			}
			return build(core.Ref, s, loc.Ptr, opts, contribs, free)
		}
	}

	// Case B: I1's own footprint lies in read-only memory and I2 writes:
	// the write cannot touch read-only memory, so the footprints are
	// disjoint under the assertion.
	if q.I2 != nil && q.I2.Op == ir.OpStore {
		if p1, s1, okP := q.I1.PointerOperand(); okP {
			loc1 := core.MemLoc{Ptr: p1, Size: s1}
			if s, opts, contribs, free, ok := containment(q, loc1, sites, h); ok {
				return build(core.NoModRef, s, loc1.Ptr, opts, contribs, free)
			}
		}
	}
	return core.ModRefConservative()
}

// ShortLived is the short-lived module (§4.2.4): allocation sites whose
// every object lives within a single iteration of the target loop. Such
// objects cannot carry cross-iteration dependences. Validation separates
// the objects into their own heap and checks, at every iteration end,
// that the allocated and freed counts match.
type ShortLived struct {
	core.BaseModule
	data  *profile.Data
	cache map[*cfg.Loop][]profile.Site
}

// NewShortLived constructs the module.
func NewShortLived(d *profile.Data) *ShortLived {
	return &ShortLived{data: d, cache: map[*cfg.Loop][]profile.Site{}}
}

func (m *ShortLived) Name() string          { return NameShortLived }
func (m *ShortLived) Kind() core.ModuleKind { return core.Speculation }

func (m *ShortLived) sites(l *cfg.Loop) []profile.Site {
	if s, ok := m.cache[l]; ok {
		return s
	}
	s := sortSites(m.data.Lifetime.ShortLivedSites(l))
	m.cache[l] = s
	return s
}

func (m *ShortLived) assertion(l *cfg.Loop, s profile.Site, guarded ir.Value, free bool) core.Assertion {
	iters := float64(0)
	if st := m.data.LoopStats[l]; st != nil {
		iters = float64(st.HeaderExecs)
	}
	cost := core.CostIterCheck * iters
	if !free {
		cost += core.CostHeapCheck * float64(m.data.PointsTo.ExecCount(guarded))
	}
	return core.Assertion{
		Module:    NameShortLived,
		Kind:      "sl-heap",
		Points:    []core.Point{sitePoint(s), {Block: l.Header}},
		Conflicts: []core.Point{sitePoint(s)},
		Cost:      cost,
	}
}

func (m *ShortLived) ModRef(q *core.ModRefQuery, h core.Handle) core.ModRefResponse {
	if q.Loop == nil || q.I1 == nil || q.Rel == core.Same {
		return core.ModRefConservative() // only cross-iteration dependences
	}
	sites := m.sites(q.Loop)
	if len(sites) == 0 {
		return core.ModRefConservative()
	}
	locs := make([]core.MemLoc, 0, 2)
	if p1, s1, ok := q.I1.PointerOperand(); ok {
		locs = append(locs, core.MemLoc{Ptr: p1, Size: s1})
	}
	if loc2, have := q.TargetLoc(); have {
		locs = append(locs, loc2)
	}
	for _, loc := range locs {
		if s, opts, contribs, free, ok := containment(q, loc, sites, h); ok {
			withSL := core.CrossOptions(opts, []core.Option{{Asserts: []core.Assertion{m.assertion(q.Loop, s, loc.Ptr, free)}}})
			if len(withSL) == 0 {
				continue
			}
			return core.ModRefResponse{
				Result:   core.NoModRef,
				Options:  withSL,
				Contribs: core.MergeContribs(core.ContribsOf(NameShortLived), contribs),
			}
		}
	}
	return core.ModRefConservative()
}
