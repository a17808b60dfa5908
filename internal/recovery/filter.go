package recovery

import "scaf/internal/core"

// Wrap interposes the quarantine on every module: evaluations of a
// quarantined module short-circuit to the conservative answer, and every
// response has options mentioning a quarantined assertion dropped before
// the orchestrator joins it. Filtering at the module boundary — not on the
// final joined answer — is what makes recovery equivalent to exclusion:
// join decisions (cheapest-option selection, conflict arbitration,
// Mod × Ref crossing) see exactly the option sets a run without the
// quarantined speculation would have seen.
//
// With an empty quarantine the wrappers are byte-exact pass-throughs
// (original response, original slices), so wrapping is safe to apply
// unconditionally: un-degraded sessions stay bit-identical to unwrapped
// runs. Name and Kind are forwarded, preserving premise routing.
//
// Intended use is core.Config.WrapModules (scaf.WithModuleWrapper), which
// applies after all other options have shaped the module list.
func Wrap(mods []core.Module, q *Quarantine) []core.Module {
	out := make([]core.Module, len(mods))
	for i, m := range mods {
		out[i] = filtered{inner: m, q: q}
	}
	return out
}

// Wrapper returns a core.Config.WrapModules hook bound to q.
func Wrapper(q *Quarantine) func([]core.Module) []core.Module {
	return func(mods []core.Module) []core.Module { return Wrap(mods, q) }
}

// filtered is the quarantine-aware module proxy.
type filtered struct {
	inner core.Module
	q     *Quarantine
}

func (f filtered) Name() string          { return f.inner.Name() }
func (f filtered) Kind() core.ModuleKind { return f.inner.Kind() }

func (f filtered) Alias(q *core.AliasQuery, h core.Handle) core.AliasResponse {
	if f.q.Empty() {
		return f.inner.Alias(q, h)
	}
	if f.q.ModuleQuarantined(f.inner.Name()) {
		f.q.moduleSkips.Add(1)
		return core.MayAliasResponse()
	}
	resp := f.inner.Alias(q, h)
	opts, changed := f.filterOptions(resp.Options)
	if !changed {
		return resp
	}
	if len(opts) == 0 {
		// Every way to make the result hold was quarantined: the module
		// has nothing left to offer for this query.
		return core.MayAliasResponse()
	}
	resp.Options = opts
	return resp
}

func (f filtered) ModRef(q *core.ModRefQuery, h core.Handle) core.ModRefResponse {
	if f.q.Empty() {
		return f.inner.ModRef(q, h)
	}
	if f.q.ModuleQuarantined(f.inner.Name()) {
		f.q.moduleSkips.Add(1)
		return core.ModRefConservative()
	}
	resp := f.inner.ModRef(q, h)
	opts, changed := f.filterOptions(resp.Options)
	if !changed {
		return resp
	}
	if len(opts) == 0 {
		return core.ModRefConservative()
	}
	resp.Options = opts
	return resp
}

// filterOptions drops every option predicated on a quarantined assertion.
// When nothing drops it returns (nil, false) and the caller keeps the
// original slice, so untouched responses stay byte-identical.
func (f filtered) filterOptions(opts []core.Option) ([]core.Option, bool) {
	drop := -1
	for i, o := range opts {
		if f.optionQuarantined(o) {
			drop = i
			break
		}
	}
	if drop < 0 {
		return nil, false
	}
	out := make([]core.Option, 0, len(opts)-1)
	out = append(out, opts[:drop]...)
	f.q.optionsFiltered.Add(1)
	for _, o := range opts[drop+1:] {
		if f.optionQuarantined(o) {
			f.q.optionsFiltered.Add(1)
			continue
		}
		out = append(out, o)
	}
	return out, true
}

func (f filtered) optionQuarantined(o core.Option) bool {
	for _, a := range o.Asserts {
		if f.q.RevokedAssert(a.String()) || f.q.ModuleQuarantined(a.Module) {
			return true
		}
	}
	return false
}
