// Package validate enforces speculative assertions at runtime — the
// validation half of the paper's speculative-transformation decomposition
// (§4.2.1). Where a real compiler would emit the checks of Fig. 7 into
// generated code, this reproduction installs equivalent checks as
// interpreter observers and re-runs the program, reporting every
// misspeculation a client's recovery code would have had to handle.
//
// On the training input every assertion SCAF emits is high-confidence
// (it held throughout profiling), so a validation run over the same input
// must report zero violations — a property the test suite enforces for
// whole benchmark plans.
package validate

import (
	"fmt"
	"sort"

	"scaf/internal/cfg"
	"scaf/internal/core"
	"scaf/internal/interp"
	"scaf/internal/ir"
	"scaf/internal/profile"
	"scaf/internal/spec"
)

// Violation is one detected misspeculation.
type Violation struct {
	Assertion core.Assertion
	Detail    string
}

// Report summarizes a validation run.
type Report struct {
	// Checks counts individual runtime checks executed.
	Checks int64
	// Violations lists every misspeculation (capped at 100 per run).
	Violations []Violation
}

// Failed reports whether any assertion was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

const maxViolations = 100

// Check re-runs the program with monitors enforcing the given assertions.
// The profile data supplies the predicted values and residue masks the
// checks compare against (exactly what a compiler would bake into the
// validation code).
func Check(prog *cfg.Program, data *profile.Data, asserts []core.Assertion, opts interp.Options) (*Report, error) {
	rep := &Report{}
	tracker := profile.NewTracker(prog)
	mon := &monitor{prog: prog, data: data, rep: rep, tracker: tracker}
	if err := mon.install(asserts); err != nil {
		return nil, err
	}
	tracker.AddIterListener(mon)
	if main := prog.Mod.FuncNamed("main"); main != nil {
		tracker.Begin(main)
	}
	opts.Observers = append([]interp.Observer{tracker, mon}, opts.Observers...)
	if _, err := interp.Run(prog.Mod, opts); err != nil {
		// A mid-run interpreter failure (trap, budget exhaustion) does not
		// erase what the monitors saw up to that point: return the partial
		// report alongside the error so recovery consumers can quarantine
		// the violations already observed.
		return rep, err
	}
	return rep, nil
}

// monitor implements every assertion kind's runtime check.
type monitor struct {
	interp.BaseObserver
	prog    *cfg.Program
	data    *profile.Data
	tracker *profile.Tracker
	rep     *Report

	// never-taken edges → their assertion.
	deadEdges map[profile.EdgeKey]*core.Assertion
	// predictable loads → (expected value, assertion).
	valueChecks map[*ir.Instr]valueCheck
	// read-only sites per loop header block, in install order.
	roSites []siteCheck
	// short-lived sites per loop header block, in install order, plus
	// live-object tracking.
	slSites []siteCheck
	slLive  map[*interp.Object]slWindow
	// residue masks per pointer-defining instruction.
	residues map[ir.Value]residueCheck
}

type valueCheck struct {
	expect uint64
	a      *core.Assertion
}

type residueCheck struct {
	mask uint16
	a    *core.Assertion
}

type siteLoopKey struct {
	site   profile.Site
	header *ir.Block
}

// siteCheck is one read-only or short-lived check. Checks are kept in a
// slice, not a map, so that the order of violations (and which ones
// survive the cap) is the same on every run.
type siteCheck struct {
	siteLoopKey
	a *core.Assertion
}

// addSiteCheck installs a check for k, replacing the assertion of an
// earlier check on the same site and loop.
func addSiteCheck(cs []siteCheck, k siteLoopKey, a *core.Assertion) []siteCheck {
	for i := range cs {
		if cs[i].siteLoopKey == k {
			cs[i].a = a
			return cs
		}
	}
	return append(cs, siteCheck{k, a})
}

type slWindow struct {
	a      *core.Assertion
	header *ir.Block
	act    uint64
	iter   int64
}

func (m *monitor) violate(a core.Assertion, format string, args ...interface{}) {
	if len(m.rep.Violations) >= maxViolations {
		return
	}
	m.rep.Violations = append(m.rep.Violations, Violation{
		Assertion: a,
		Detail:    fmt.Sprintf(format, args...),
	})
}

func pointSite(p core.Point) (profile.Site, bool) {
	switch {
	case p.G != nil:
		return profile.Site{G: p.G}, true
	case p.Instr != nil && p.Instr.IsAllocation():
		return profile.Site{In: p.Instr}, true
	}
	return profile.Site{}, false
}

// install registers checks for each assertion, deduplicating by content.
func (m *monitor) install(asserts []core.Assertion) error {
	m.deadEdges = map[profile.EdgeKey]*core.Assertion{}
	m.valueChecks = map[*ir.Instr]valueCheck{}
	m.slLive = map[*interp.Object]slWindow{}
	m.residues = map[ir.Value]residueCheck{}

	for i := range asserts {
		a := &asserts[i]
		switch a.Module {
		case spec.NameControlSpec:
			for _, p := range a.Points {
				if p.Block == nil || p.EdgeTo == nil {
					return fmt.Errorf("validate: malformed control point %s", p)
				}
				m.deadEdges[profile.EdgeKey{From: p.Block, To: p.EdgeTo}] = a
			}
		case spec.NameValuePred:
			for _, p := range a.Points {
				if p.Instr == nil || p.Instr.Op != ir.OpLoad {
					return fmt.Errorf("validate: value check needs a load point, got %s", p)
				}
				v, ok := m.data.Value.Predictable(p.Instr)
				if !ok {
					return fmt.Errorf("validate: no prediction for %s", p)
				}
				m.valueChecks[p.Instr] = valueCheck{expect: v, a: a}
			}
		case spec.NameReadOnly, spec.NameShortLived:
			var site profile.Site
			var header *ir.Block
			okSite := false
			for _, p := range a.Points {
				if s, ok := pointSite(p); ok {
					site, okSite = s, true
				} else if p.Block != nil {
					header = p.Block
				}
			}
			if !okSite || header == nil {
				return fmt.Errorf("validate: %s assertion needs site and loop points", a.Module)
			}
			k := siteLoopKey{site: site, header: header}
			if a.Module == spec.NameReadOnly {
				m.roSites = addSiteCheck(m.roSites, k, a)
			} else {
				m.slSites = addSiteCheck(m.slSites, k, a)
			}
		case spec.NameResidue:
			for _, p := range a.Points {
				if p.Instr == nil {
					continue
				}
				mask, ok := m.data.Residue.Mask(p.Instr)
				if !ok {
					return fmt.Errorf("validate: no residue profile for %s", p)
				}
				m.residues[p.Instr] = residueCheck{mask: mask, a: a}
			}
		case spec.NamePointsTo:
			return fmt.Errorf("validate: raw points-to assertions are prohibitive; factored modules must replace them")
		default:
			return fmt.Errorf("validate: unknown assertion module %q", a.Module)
		}
	}
	return nil
}

// activeLoop reports whether a loop with the given header is active, and
// its current activation/iteration.
func (m *monitor) activeLoop(header *ir.Block) (act uint64, iter int64, ok bool) {
	for _, fr := range m.tracker.Frames() {
		for _, e := range fr.Loops() {
			if e.Loop.Header == header {
				return e.Act, e.Iter, true
			}
		}
	}
	return 0, 0, false
}

func (m *monitor) Edge(fn *ir.Func, from, to *ir.Block) {
	if a, dead := m.deadEdges[profile.EdgeKey{From: from, To: to}]; dead {
		m.rep.Checks++
		m.violate(*a, "speculatively dead edge %s->%s taken", from, to)
	}
}

func (m *monitor) checkAccess(in *ir.Instr, addr uint64, o *interp.Object, isStore bool) {
	// Residue checks fire on every access through a guarded pointer.
	if ptr, _, ok := in.PointerOperand(); ok {
		if rc, guarded := m.residues[ptr]; guarded {
			m.rep.Checks++
			if rc.mask&(1<<(addr&15)) == 0 {
				m.violate(*rc.a, "pointer %s observed residue %d outside profiled mask %#x",
					ptr, addr&15, rc.mask)
			}
		}
	}
	if isStore {
		// Read-only heap: while a protecting loop runs, EVERY write pays
		// the heap check (the paper's Fig. 7a mask-and-compare); a write
		// that actually lands in a protected object is a misspeculation.
		site := profile.SiteOf(o)
		for _, c := range m.roSites {
			_, _, active := m.activeLoop(c.header)
			if !active {
				continue
			}
			m.rep.Checks++
			if c.site == site {
				m.violate(*c.a, "write to read-only object of %s during protected loop", site)
			}
		}
	}
}

func (m *monitor) Load(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	if vc, guarded := m.valueChecks[in]; guarded {
		m.rep.Checks++
		if val != vc.expect {
			m.violate(*vc.a, "load %s returned %d, predicted %d", in, int64(val), int64(vc.expect))
		}
	}
	m.checkAccess(in, addr, o, false)
}

func (m *monitor) Store(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	m.checkAccess(in, addr, o, true)
}

func (m *monitor) Alloc(o *interp.Object) {
	site := profile.SiteOf(o)
	for _, c := range m.slSites {
		if c.site != site {
			continue
		}
		if act, iter, active := m.activeLoop(c.header); active {
			m.slLive[o] = slWindow{a: c.a, header: c.header, act: act, iter: iter}
		}
	}
}

func (m *monitor) Free(in *ir.Instr, o *interp.Object) {
	delete(m.slLive, o)
}

// IterEnd enforces the short-lived allocated==freed count: one counter
// check per guarded iteration, and any guarded object still live when its
// iteration ends is a misspeculation, reported in allocation order.
func (m *monitor) IterEnd(e *profile.LoopEntry) {
	for _, c := range m.slSites {
		if c.header == e.Loop.Header {
			m.rep.Checks++
		}
	}
	var survivors []*interp.Object
	for o, w := range m.slLive {
		if w.header == e.Loop.Header && w.act == e.Act && w.iter <= e.Iter {
			survivors = append(survivors, o)
		}
	}
	if len(survivors) > 1 {
		sort.Slice(survivors, func(i, j int) bool { return survivors[i].ID < survivors[j].ID })
	}
	for _, o := range survivors {
		m.violate(*m.slLive[o].a, "object of %s survived iteration %d of its loop",
			profile.SiteOf(o), m.slLive[o].iter)
		delete(m.slLive, o)
	}
}

// LoopExit is part of profile.IterListener.
func (m *monitor) LoopExit(e *profile.LoopEntry) {}
