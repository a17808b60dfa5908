package core

// Validation-cost model (paper §4.2.1 and Fig. 7). Costs are abstract
// per-check latencies (in "cycle" units); a speculative assertion's total
// cost is the per-check latency multiplied by the profiled execution count
// of the guarded operation. The asymmetry below is the paper's central
// economic argument: everything SCAF emits is a few ALU ops, while memory
// speculation needs shadow-memory traffic on every guarded access.
const (
	// CostCtrlCheck is control speculation: the biased branch is computed
	// anyway, so validation is practically zero (§4.2.4).
	CostCtrlCheck = 0.0
	// CostValueCheck is value prediction: compare loaded value against the
	// predicted constant (§4.2.4).
	CostValueCheck = 1.0
	// CostResidueCheck is pointer-residue speculation: a mask-and-compare
	// on the computed pointer (§4.2.3, Fig. 7a).
	CostResidueCheck = 1.0
	// CostHeapCheck is the points-to *heap* check used by read-only and
	// short-lived validation: mask the pointer, compare against the heap
	// tag (§4.2.3, Fig. 7a).
	CostHeapCheck = 2.0
	// CostIterCheck is the short-lived module's per-iteration
	// allocated-equals-freed counter check (§4.2.4).
	CostIterCheck = 2.0
	// CostMemSpecCheck is full memory speculation: shadow-memory lookup,
	// metadata check and update per guarded access (Fig. 7b).
	CostMemSpecCheck = 20.0
	// Prohibitive is assigned to raw points-to object assertions, which
	// are too expensive to validate directly (§4.2.3); clients discard
	// options that include them, but factored modules may replace them
	// with their own cheap heap checks.
	Prohibitive = 1e18
)

// Affordable reports whether an option's cost is below the prohibitive
// threshold, i.e. a rational client could actually validate it.
func Affordable(o Option) bool { return o.Cost() < Prohibitive }

// AffordableOptions filters an option set to affordable options. Option
// sets are never mutated in place, so a set with nothing to filter — the
// usual case — is returned itself.
func AffordableOptions(s []Option) []Option {
	i := 0
	for i < len(s) && Affordable(s[i]) {
		i++
	}
	if i == len(s) {
		return s
	}
	out := append([]Option(nil), s[:i]...)
	for _, o := range s[i+1:] {
		if Affordable(o) {
			out = append(out, o)
		}
	}
	return out
}
