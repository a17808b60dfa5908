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
// validation code). The run pays only for the check kinds the
// assertions install: the loop tracker runs only for read-only and
// short-lived checks.
func Check(prog *cfg.Program, data *profile.Data, asserts []core.Assertion, opts interp.Options) (*Report, error) {
	rep := &Report{}
	mon := &monitor{data: data, rep: rep}
	if err := mon.install(asserts); err != nil {
		return nil, err
	}
	obs := []interp.Observer{mon}
	if len(mon.roSites) > 0 || len(mon.slSites) > 0 {
		mon.tracker = profile.NewTracker(prog)
		mon.tracker.AddIterListener(mon)
		if main := prog.Mod.FuncNamed("main"); main != nil {
			mon.tracker.Begin(main)
		}
		// The tracker observes first, so loop state is current when the
		// monitor sees the same event.
		obs = []interp.Observer{mon.tracker, mon}
	}
	opts.Observers = append(obs, opts.Observers...)
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
	data    *profile.Data
	tracker *profile.Tracker // nil unless a read-only or short-lived check needs it
	rep     *Report

	// deadEdges holds, per function, the assertion of each never-taken
	// edge: two slots per block, one per successor position.
	deadEdges map[*ir.Func][]*core.Assertion
	deadFn    *ir.Func
	deadCur   []*core.Assertion
	// valueChecks and residues are the installed value and residue
	// checks; accesses resolves them once per load or store.
	valueChecks map[*ir.Instr]valueCheck
	residues    map[ir.Value]residueCheck
	accesses    profile.InstrTable[accessChecks]
	// roSites are the read-only checks in install order; roActive lists
	// the ones whose loop is active at tracker shape roShape.
	roSites  []siteCheck
	roActive []int
	roShape  uint64
	roFresh  bool
	// slSites are the short-lived checks in install order, slPerLoop
	// counts them per loop header, and slWindows holds, per guarded loop
	// activation, the guarded objects allocated in its current iteration.
	slSites   []siteCheck
	slPerLoop map[*ir.Block]int64
	slWindows map[*profile.LoopEntry][]slWindow
}

type valueCheck struct {
	expect uint64
	a      *core.Assertion
}

type residueCheck struct {
	mask uint16
	a    *core.Assertion
}

// accessChecks is a load's or store's value and residue check, looked up
// on its first execution; a nil assertion means no check.
type accessChecks struct {
	resolved bool
	value    valueCheck
	residue  residueCheck
	ptr      ir.Value
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

// slWindow is one guarded object allocated in the current iteration of a
// loop activation, and the short-lived check guarding it there.
type slWindow struct {
	o     *interp.Object
	check int
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
	m.valueChecks = map[*ir.Instr]valueCheck{}
	m.residues = map[ir.Value]residueCheck{}

	for i := range asserts {
		a := &asserts[i]
		switch a.Module {
		case spec.NameControlSpec:
			for _, p := range a.Points {
				if p.Block == nil || p.EdgeTo == nil {
					return fmt.Errorf("validate: malformed control point %s", p)
				}
				m.addDeadEdge(p.Block, p.EdgeTo, a)
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
	if len(m.slSites) > 0 {
		m.slPerLoop = map[*ir.Block]int64{}
		for _, c := range m.slSites {
			m.slPerLoop[c.header]++
		}
		m.slWindows = map[*profile.LoopEntry][]slWindow{}
	}
	return nil
}

// addDeadEdge guards the edge from→to with a, in the slot of each
// successor position of from that reaches to. An edge that is not in the
// CFG is never taken, so it needs no slot.
func (m *monitor) addDeadEdge(from, to *ir.Block, a *core.Assertion) {
	fn := from.Fn
	tab := m.deadEdges[fn]
	if tab == nil {
		if m.deadEdges == nil {
			m.deadEdges = map[*ir.Func][]*core.Assertion{}
		}
		tab = make([]*core.Assertion, 2*len(fn.Blocks))
		m.deadEdges[fn] = tab
	}
	for k := 0; k < 2 && k < len(from.Succs); k++ {
		if i := 2*from.Index + k; from.Succs[k] == to && i < len(tab) {
			tab[i] = a
		}
	}
}

func (m *monitor) Edge(fn *ir.Func, from, to *ir.Block) {
	if m.deadEdges == nil {
		return
	}
	if fn != m.deadFn {
		m.deadFn, m.deadCur = fn, m.deadEdges[fn]
	}
	for k := 0; k < 2 && k < len(from.Succs); k++ {
		if from.Succs[k] != to {
			continue
		}
		if i := 2*from.Index + k; i < len(m.deadCur) && m.deadCur[i] != nil {
			m.rep.Checks++
			m.violate(*m.deadCur[i], "speculatively dead edge %s->%s taken", from, to)
		}
		return
	}
}

// checksOf returns in's value and residue checks, resolving them on its
// first execution.
func (m *monitor) checksOf(in *ir.Instr) *accessChecks {
	c := m.accesses.At(in)
	if !c.resolved {
		c.resolved = true
		c.value = m.valueChecks[in]
		if ptr, _, ok := in.PointerOperand(); ok {
			c.ptr, c.residue = ptr, m.residues[ptr]
		}
	}
	return c
}

// loopActive reports whether a loop with the given header has an
// activation on the stack.
func (m *monitor) loopActive(header *ir.Block) bool {
	for _, fr := range m.tracker.Frames() {
		for _, e := range fr.Loops() {
			if e.Loop.Header == header {
				return true
			}
		}
	}
	return false
}

// activeReadOnly returns the read-only checks whose loop is active,
// recomputing them only when the tracker's shape changes.
func (m *monitor) activeReadOnly() []int {
	if shape := m.tracker.Shape(); !m.roFresh || shape != m.roShape {
		m.roActive = m.roActive[:0]
		for i, c := range m.roSites {
			if m.loopActive(c.header) {
				m.roActive = append(m.roActive, i)
			}
		}
		m.roShape, m.roFresh = shape, true
	}
	return m.roActive
}

func (m *monitor) checkAccess(in *ir.Instr, val, addr uint64, o *interp.Object, isStore bool) {
	if len(m.valueChecks) > 0 || len(m.residues) > 0 {
		c := m.checksOf(in)
		if vc := c.value; vc.a != nil {
			m.rep.Checks++
			if val != vc.expect {
				m.violate(*vc.a, "load %s returned %d, predicted %d", in, int64(val), int64(vc.expect))
			}
		}
		// Residue checks fire on every access through a guarded pointer.
		if rc := c.residue; rc.a != nil {
			m.rep.Checks++
			if rc.mask&(1<<(addr&15)) == 0 {
				m.violate(*rc.a, "pointer %s observed residue %d outside profiled mask %#x",
					c.ptr, addr&15, rc.mask)
			}
		}
	}
	if isStore && len(m.roSites) > 0 {
		// Read-only heap: while a protecting loop runs, EVERY write pays
		// the heap check (the paper's Fig. 7a mask-and-compare); a write
		// that actually lands in a protected object is a misspeculation.
		active := m.activeReadOnly()
		if len(active) == 0 {
			return
		}
		site := profile.SiteOf(o)
		for _, i := range active {
			c := m.roSites[i]
			m.rep.Checks++
			if c.site == site {
				m.violate(*c.a, "write to read-only object of %s during protected loop", site)
			}
		}
	}
}

func (m *monitor) Load(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	m.checkAccess(in, val, addr, o, false)
}

func (m *monitor) Store(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	m.checkAccess(in, val, addr, o, true)
}

// Alloc opens a window for a guarded object under every active
// activation of each loop guarding its site, as the lifetime profiler
// tracks an object under every active loop entry.
func (m *monitor) Alloc(o *interp.Object) {
	if len(m.slSites) == 0 {
		return
	}
	site := profile.SiteOf(o)
	for i, c := range m.slSites {
		if c.site != site {
			continue
		}
		for _, fr := range m.tracker.Frames() {
			for _, e := range fr.Loops() {
				if e.Loop.Header == c.header {
					m.slWindows[e] = append(m.slWindows[e], slWindow{o: o, check: i})
				}
			}
		}
	}
}

// IterEnd enforces the short-lived allocated==freed count: one counter
// check per guarded iteration, and any guarded object still live when its
// iteration ends is a misspeculation. Each activation's windows are in
// allocation order, then install order, and so are the violations.
func (m *monitor) IterEnd(e *profile.LoopEntry) {
	n := m.slPerLoop[e.Loop.Header]
	if n == 0 {
		return
	}
	m.rep.Checks += n
	ws := m.slWindows[e]
	for _, w := range ws {
		if !w.o.Freed {
			m.violate(*m.slSites[w.check].a, "object of %s survived iteration %d of its loop",
				profile.SiteOf(w.o), e.Iter)
		}
	}
	if len(ws) > 0 {
		m.slWindows[e] = ws[:0]
	}
}

// LoopExit drops the ending activation's windows, all closed by its last
// IterEnd.
func (m *monitor) LoopExit(e *profile.LoopEntry) {
	if m.slWindows != nil {
		delete(m.slWindows, e)
	}
}
