package core

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"scaf/internal/ir"
)

// Point is a program point an assertion touches: an instruction, a block,
// a CFG edge (Block→EdgeTo), or a global. Points are comparable; conflict
// detection relies on that.
type Point struct {
	Instr  *ir.Instr
	Block  *ir.Block
	EdgeTo *ir.Block // with Block set: the edge Block→EdgeTo
	G      *ir.Global
}

func (p Point) String() string {
	var buf [64]byte
	return string(p.appendTo(buf[:0]))
}

// appendTo appends p's rendering to buf: "fn:%v3" for an instruction,
// "fn:body.2" for a block, "fn:body.2->exit.4" for a CFG edge, "@g" for a
// global.
func (p Point) appendTo(buf []byte) []byte {
	switch {
	case p.Instr != nil:
		buf = append(append(buf, p.Instr.Blk.Fn.Name...), ':')
		return p.Instr.AppendName(buf)
	case p.Block != nil:
		buf = append(append(buf, p.Block.Fn.Name...), ':')
		buf = p.Block.AppendName(buf)
		if p.EdgeTo != nil {
			buf = p.EdgeTo.AppendName(append(buf, "->"...))
		}
		return buf
	case p.G != nil:
		return append(append(buf, '@'), p.G.GName...)
	}
	return append(buf, '?')
}

// appendCost appends c as the %g verb renders it. Costs are mostly whole
// numbers, which %g prints as plain integers below 1e6 (minus zero aside),
// so those skip the shortest-float search.
func appendCost(buf []byte, c float64) []byte {
	if c > -1e6 && c < 1e6 && c == math.Trunc(c) && (c != 0 || !math.Signbit(c)) {
		return strconv.AppendInt(buf, int64(c), 10)
	}
	return strconv.AppendFloat(buf, c, 'g', -1, 64)
}

// Assertion is one speculative assertion (paper §3.2.3/§4.2.1): a
// dynamically-enforced fact, produced by a speculation module, that the
// client must validate at runtime to use the predicated analysis result.
type Assertion struct {
	// Module identifies the speculation module (and thus the validation
	// transform the client must apply).
	Module string
	// Kind names the validation scheme within the module, e.g.
	// "never-taken-edge", "value-check", "ro-heap", "residue-mask".
	Kind string
	// Points are the transformation points where validation code goes.
	Points []Point
	// Conflicts are program points this assertion must modify exclusively
	// (e.g. an allocation site that is re-allocated into a special heap).
	Conflicts []Point
	// Cost is the estimated total validation cost: per-check latency ×
	// profiled execution count of the guarded operation (§4.2.1).
	Cost float64

	// intern, when non-nil, is the canonical handle carrying the
	// precomputed identity strings (see Interner). It is invisible on the
	// wire (unexported, so JSON marshalling skips it) and to reflection
	// equality across interners (DeepEqual compares the pointee strings).
	intern *internedAssert
}

// key canonically identifies an assertion for deduplication. It covers
// the full content (including cost and conflict points) so that merging
// is order-independent even for ill-behaved modules that emit same-named
// assertions with different payloads. Interned assertions answer from the
// handle without rebuilding the string.
func (a Assertion) key() string {
	if a.intern != nil {
		return a.intern.key
	}
	return a.computeKey()
}

func (a Assertion) computeKey() string {
	var buf [128]byte
	return string(a.appendKey(buf[:0]))
}

// appendKey appends the full-content key to buf:
// "module/kind|point|point$cost^conflict^conflict".
func (a *Assertion) appendKey(buf []byte) []byte {
	buf = append(append(append(buf, a.Module...), '/'), a.Kind...)
	for _, p := range a.Points {
		buf = p.appendTo(append(buf, '|'))
	}
	buf = appendCost(append(buf, '$'), a.Cost)
	for _, p := range a.Conflicts {
		buf = p.appendTo(append(buf, '^'))
	}
	return buf
}

// String is the assertion's wire identity — what clients, Revokers, and
// the /observe protocol key on. Interned assertions answer in O(1).
func (a Assertion) String() string {
	if a.intern != nil {
		return a.intern.str[0]
	}
	return a.computeString()
}

func (a Assertion) computeString() string {
	var buf [128]byte
	return string(a.appendString(buf[:0]))
}

// appendString appends the wire identity to buf:
// "module/kind{point,point cost=cost}".
func (a *Assertion) appendString(buf []byte) []byte {
	buf = append(append(append(buf, a.Module...), '/'), a.Kind...)
	buf = append(buf, '{')
	for i, p := range a.Points {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = p.appendTo(buf)
	}
	buf = appendCost(append(buf, " cost="...), a.Cost)
	return append(buf, '}')
}

// Option is one way to make a query result hold: a conjunction of
// assertions that must all be validated (paper Fig. 3, "Assertion Option").
type Option struct {
	Asserts []Assertion
}

// Cost is the option's total validation cost.
func (o Option) Cost() float64 {
	var c float64
	for _, a := range o.Asserts {
		c += a.Cost
	}
	return c
}

// Free reports whether the option needs no validation at all.
func (o Option) Free() bool { return len(o.Asserts) == 0 }

func (o Option) String() string {
	if o.Free() {
		return "{}"
	}
	parts := make([]string, len(o.Asserts))
	for i, a := range o.Asserts {
		parts[i] = a.String()
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, " + ") + "}"
}

// conflictPointsClash reports whether two distinct assertions both claim
// some conflict point.
func conflictPointsClash(a, b []Point) bool {
	for _, p := range a {
		for _, q := range b {
			if p == q {
				return true
			}
		}
	}
	return false
}

// mergeOptions conjoins two options (the paper's O1 + O2), deduplicating
// identical assertions. ok is false when the combination conflicts.
// Assertion sets are tiny, so identity and conflict checks are linear
// scans over the merged set — interned assertions compare by handle, and
// no map or key set is materialized.
func mergeOptions(a, b Option) (Option, bool) {
	out := Option{Asserts: append([]Assertion(nil), a.Asserts...)}
	// a must be internally consistent: two different assertions claiming
	// the same conflict point cannot be validated together.
	for i := range out.Asserts {
		for j := i + 1; j < len(out.Asserts); j++ {
			if !assertEqual(&out.Asserts[i], &out.Asserts[j]) &&
				conflictPointsClash(out.Asserts[i].Conflicts, out.Asserts[j].Conflicts) {
				return Option{}, false
			}
		}
	}
bAsserts:
	for bi := range b.Asserts {
		bas := &b.Asserts[bi]
		for i := range out.Asserts {
			if assertEqual(&out.Asserts[i], bas) {
				continue bAsserts // already carried
			}
		}
		for i := range out.Asserts {
			if conflictPointsClash(out.Asserts[i].Conflicts, bas.Conflicts) {
				return Option{}, false
			}
		}
		out.Asserts = append(out.Asserts, *bas)
	}
	return out, true
}

// TryMerge conjoins two options if their assertions do not conflict,
// deduplicating identical assertions — the building block clients use for
// global validation planning (§3.4).
func TryMerge(a, b Option) (Option, bool) { return mergeOptions(a, b) }

// OptionsConflict reports whether no pair of options from the two sets can
// be combined (the paper's conflict(S1, S2)).
func OptionsConflict(s1, s2 []Option) bool {
	for _, o1 := range s1 {
		for _, o2 := range s2 {
			if _, ok := mergeOptions(o1, o2); ok {
				return false
			}
		}
	}
	return true
}

// CrossOptions is the paper's S1 × S2: every non-conflicting pairwise
// conjunction. Returns nil when everything conflicts.
func CrossOptions(s1, s2 []Option) []Option {
	var out []Option
	for _, o1 := range s1 {
		for _, o2 := range s2 {
			if m, ok := mergeOptions(o1, o2); ok {
				out = append(out, m)
			}
		}
	}
	return dedupeOptions(out)
}

// UnionOptions is the paper's S1 + S2. The overwhelmingly common join —
// two single free options, the shape of every pair of unconditional NoDep
// answers — returns the shared unconditional set without allocating.
func UnionOptions(s1, s2 []Option) []Option {
	if len(s1) == 1 && len(s2) == 1 && s1[0].Free() && s2[0].Free() {
		return unconditionalShared
	}
	if len(s1) == 0 {
		return dedupeOptions(s2)
	}
	if len(s2) == 0 {
		return dedupeOptions(s1)
	}
	return dedupeOptions(append(append([]Option(nil), s1...), s2...))
}

// CheapestOf keeps only the cheapest option (the CHEAPEST join policy).
// Singleton sets pass through unchanged; option sets are never mutated in
// place, so sharing the input slice is safe.
func CheapestOf(s []Option) []Option {
	if len(s) <= 1 {
		return s
	}
	best, bc := s[0], s[0].Cost()
	for _, o := range s[1:] {
		if c := o.Cost(); c < bc {
			best, bc = o, c
		}
	}
	return []Option{best}
}

// HasFree reports whether some option requires no validation.
func HasFree(s []Option) bool {
	for _, o := range s {
		if o.Free() {
			return true
		}
	}
	return false
}

// MinCost returns the cheapest option's cost (infinite for empty sets).
func MinCost(s []Option) float64 {
	best := Prohibitive * 16
	for _, o := range s {
		if c := o.Cost(); c < best {
			best = c
		}
	}
	return best
}

// sameOptionWire reports whether two options denote the same validation
// set on the wire: equal assertion multisets under String() identity —
// exactly the equivalence dedupeOptions used to get by comparing sorted
// Option.String() renderings, now decided without building either string.
// Interned assertions share backing strings, so the comparisons are
// pointer-fast.
func sameOptionWire(a, b Option) bool {
	n := len(a.Asserts)
	if n != len(b.Asserts) {
		return false
	}
	if n == 0 {
		return true
	}
	if n > 64 {
		return a.String() == b.String() // unreachable in practice
	}
	var used uint64
outer:
	for i := range a.Asserts {
		for j := range b.Asserts {
			if used&(1<<j) != 0 {
				continue
			}
			if a.Asserts[i].String() == b.Asserts[j].String() {
				used |= 1 << j
				continue outer
			}
		}
		return false
	}
	return true
}

// dedupeOptions keeps the first occurrence of each wire-distinct option.
// Sets are always small, so duplicates are found by pairwise scan; a set
// without any passes through unchanged (callers never mutate option sets
// in place).
func dedupeOptions(s []Option) []Option {
	for j := 1; j < len(s); j++ {
		for i := 0; i < j; i++ {
			if sameOptionWire(s[i], s[j]) {
				return dedupeFrom(s, j)
			}
		}
	}
	return s
}

// dedupeFrom is dedupeOptions for a set whose first duplicate is s[j].
func dedupeFrom(s []Option, j int) []Option {
	out := append([]Option(nil), s[:j]...)
	for _, o := range s[j+1:] {
		dup := false
		for i := range out {
			if sameOptionWire(out[i], o) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, o)
		}
	}
	return out
}

// unconditionalShared backs Unconditional; callers never mutate option
// sets in place (they build new slices), so sharing is safe and saves an
// allocation on every conservative or fact response.
var unconditionalShared = []Option{{}}

// Unconditional is the option set of a result that holds with no
// speculation: one empty option.
func Unconditional() []Option { return unconditionalShared }
