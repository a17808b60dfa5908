package core

import (
	"sort"
	"sync"
)

// AliasResponse is a module's (or the framework's) answer to an alias
// query: a result, the ways to make it hold (Options — any one suffices),
// and the set of modules that contributed to it.
type AliasResponse struct {
	Result   AliasResult
	Options  []Option
	Contribs []string
}

// ModRefResponse is the mod-ref counterpart.
type ModRefResponse struct {
	Result   ModRefResult
	Options  []Option
	Contribs []string
}

// MayAliasResponse is the conservative alias answer.
func MayAliasResponse() AliasResponse {
	return AliasResponse{Result: MayAlias, Options: Unconditional()}
}

// ModRefConservative is the conservative mod-ref answer.
func ModRefConservative() ModRefResponse {
	return ModRefResponse{Result: ModRef, Options: Unconditional()}
}

// contribCache interns the single-name contributor slices ContribsOf
// hands out. Contributor lists are immutable by convention (MergeContribs
// and the joins never write into an input), so every answer from one
// module can share one backing array. The set of module names is tiny and
// fixed per process, so the cache never grows past it.
var contribCache sync.Map // module name -> []string{name}

// ContribsOf returns module mod's own contributor list, []string{mod},
// shared by every caller: modules crediting themselves in an answer use it
// instead of allocating the list per answer.
func ContribsOf(mod string) []string {
	if v, ok := contribCache.Load(mod); ok {
		return v.([]string)
	}
	v, _ := contribCache.LoadOrStore(mod, []string{mod})
	return v.([]string)
}

// AliasFact is an unconditional (validation-free) alias answer from
// module mod.
func AliasFact(r AliasResult, mod string) AliasResponse {
	return AliasResponse{Result: r, Options: Unconditional(), Contribs: ContribsOf(mod)}
}

// ModRefFact is an unconditional mod-ref answer from module mod.
func ModRefFact(r ModRefResult, mod string) ModRefResponse {
	return ModRefResponse{Result: r, Options: Unconditional(), Contribs: ContribsOf(mod)}
}

// AliasSpec is a speculative alias answer predicated on the assertions.
func AliasSpec(r AliasResult, mod string, asserts ...Assertion) AliasResponse {
	return AliasResponse{Result: r, Options: []Option{{Asserts: asserts}}, Contribs: ContribsOf(mod)}
}

// ModRefSpec is a speculative mod-ref answer predicated on the assertions.
func ModRefSpec(r ModRefResult, mod string, asserts ...Assertion) ModRefResponse {
	return ModRefResponse{Result: r, Options: []Option{{Asserts: asserts}}, Contribs: ContribsOf(mod)}
}

// MergeContribs unions contributor lists, sorted and deduplicated.
// Contributor lists are never mutated in place, so the result may share an
// input: canonical (sorted, duplicate-free) inputs merge linearly, and an
// input that already contains everything the others name is returned as
// is. That covers the common join shapes — one side contributed and the
// other is the neutral response, or a module crediting itself in a list
// that already names it — without allocating.
func MergeContribs(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		if !sortedUnique(l) {
			return mergeUnsorted(lists)
		}
		out = merge2(out, l)
	}
	return out
}

// merge2 is the sorted union of two canonical lists. A list that already
// contains the other is returned itself.
func merge2(a, b []string) []string {
	if subset(b, a) {
		return a
	}
	if subset(a, b) {
		return b
	}
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// subset reports whether every name of canonical list s is in canonical
// list of.
func subset(s, of []string) bool {
	j := 0
	for _, x := range s {
		for j < len(of) && of[j] < x {
			j++
		}
		if j == len(of) || of[j] != x {
			return false
		}
		j++
	}
	return true
}

// mergeUnsorted is MergeContribs for inputs not in canonical form, such as
// a hand-built list; ContribsOf and MergeContribs only produce canonical
// ones.
func mergeUnsorted(lists [][]string) []string {
	seen := map[string]bool{}
	var out []string
	for _, l := range lists {
		for _, s := range l {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	sort.Strings(out)
	return out
}

func sortedUnique(l []string) bool {
	for i := 1; i < len(l); i++ {
		if l[i-1] >= l[i] {
			return false
		}
	}
	return true
}

// IsDefinite reports whether the alias result is maximally precise.
func (r AliasResponse) IsDefinite() bool { return r.Result == NoAlias || r.Result == MustAlias }

// IsDefinite reports whether the mod-ref result is maximally precise.
func (r ModRefResponse) IsDefinite() bool { return r.Result == NoModRef }

// ModuleKind distinguishes memory-analysis from speculation modules.
type ModuleKind int

const (
	MemoryAnalysis ModuleKind = iota
	Speculation
)

func (k ModuleKind) String() string {
	if k == Speculation {
		return "speculation"
	}
	return "memory-analysis"
}

// Handle is the channel through which a module submits premise queries
// back to the Orchestrator (paper §3.1). Factored modules formulate
// premise queries from incoming queries to resolve propositions about
// which they cannot reason; the Orchestrator routes them to the other
// modules without the requester knowing who answers.
type Handle interface {
	// PremiseAlias resolves an alias premise query.
	PremiseAlias(q *AliasQuery) AliasResponse
	// PremiseModRef resolves a mod-ref premise query.
	PremiseModRef(q *ModRefQuery) ModRefResponse
}

// Module is an analysis module: a memory-analysis algorithm or the
// analysis part of a decomposed speculative technique (paper §4.2.1).
// Modules answer what they can and return the conservative response
// otherwise; they must never block on h being unable to help.
type Module interface {
	Name() string
	Kind() ModuleKind
	Alias(q *AliasQuery, h Handle) AliasResponse
	ModRef(q *ModRefQuery, h Handle) ModRefResponse
}

// NoHelp is a Handle for isolated evaluation: every premise query gets
// the conservative answer. It models self-contained prior-work techniques
// (composition by confluence).
type NoHelp struct{}

func (NoHelp) PremiseAlias(q *AliasQuery) AliasResponse    { return MayAliasResponse() }
func (NoHelp) PremiseModRef(q *ModRefQuery) ModRefResponse { return ModRefConservative() }

// BaseModule provides default conservative answers for modules that only
// implement one of the two query types.
type BaseModule struct{}

func (BaseModule) Alias(q *AliasQuery, h Handle) AliasResponse {
	return MayAliasResponse()
}

func (BaseModule) ModRef(q *ModRefQuery, h Handle) ModRefResponse {
	return ModRefConservative()
}
