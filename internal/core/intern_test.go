package core

import (
	"math/rand"
	"testing"

	"scaf/internal/ir"
	"scaf/internal/lower"
	"scaf/internal/mcgen"
)

// harvestPoints lowers an mcgen program and collects its instruction,
// block, CFG-edge and global points — the raw material real speculation
// modules build assertions from.
func harvestPoints(tb testing.TB, seed int64) []Point {
	tb.Helper()
	mod, err := lower.Compile("gen", mcgen.New(seed).Program())
	if err != nil {
		tb.Fatalf("seed %d: %v", seed, err)
	}
	var pts []Point
	for _, fn := range mod.Funcs {
		fn.Instrs(func(in *ir.Instr) { pts = append(pts, Point{Instr: in}) })
	}
	for _, fn := range mod.Funcs {
		for _, b := range fn.Blocks {
			pts = append(pts, Point{Block: b})
			for _, s := range b.Succs {
				pts = append(pts, Point{Block: b, EdgeTo: s})
			}
		}
	}
	for _, g := range mod.Globals {
		pts = append(pts, Point{G: g})
	}
	if len(pts) < 16 {
		tb.Fatalf("seed %d harvested only %d points", seed, len(pts))
	}
	return pts
}

// genAssertion builds a well-behaved assertion over the harvested points:
// like the real speculation modules, its conflict set is a deterministic
// function of its observable content (module, kind, points, cost), so wire
// identity determines full identity.
func genAssertion(r *rand.Rand, pts []Point) Assertion {
	mods := []string{"ctrl-spec", "value-pred", "pointsto-spec", "separation"}
	kinds := []string{"never-taken-edge", "value-check", "ro-heap", "residue-mask"}
	a := Assertion{
		Module: mods[r.Intn(len(mods))],
		Kind:   kinds[r.Intn(len(kinds))],
		Cost:   []float64{0, 1, 2.5, 40, 1e6}[r.Intn(5)],
	}
	for n := 1 + r.Intn(3); n > 0; n-- {
		a.Points = append(a.Points, pts[r.Intn(len(pts))])
	}
	if a.Kind == "ro-heap" { // conflicts derived from content, not drawn fresh
		a.Conflicts = []Point{a.Points[0]}
	}
	return a
}

// TestInternHandleEqualsStringEqual is the interning property test: over
// mcgen-derived assertion and option sets, two interned assertions carry
// the same handle exactly when their String() wire identities are equal.
// (Handles intern the full key; for well-behaved modules — conflict sets a
// function of observable content — key equality and wire equality
// coincide, which is what makes handle comparison a sound stand-in for
// re-stringification everywhere.)
func TestInternHandleEqualsStringEqual(t *testing.T) {
	pts := harvestPoints(t, 3)
	r := rand.New(rand.NewSource(42))
	it := NewInterner()

	var interned []Assertion
	for i := 0; i < 400; i++ {
		opts := make([]Option, 1+r.Intn(3))
		for oi := range opts {
			for n := r.Intn(3); n > 0; n-- {
				opts[oi].Asserts = append(opts[oi].Asserts, genAssertion(r, pts))
			}
		}
		for _, o := range it.InternOptions(opts) {
			interned = append(interned, o.Asserts...)
		}
	}
	if len(interned) < 200 {
		t.Fatalf("generated only %d assertions", len(interned))
	}
	for i := range interned {
		if interned[i].intern == nil {
			t.Fatalf("assertion %d left the interner without a handle", i)
		}
	}
	same, diff := 0, 0
	for i := 0; i < len(interned); i++ {
		for j := i + 1; j < len(interned); j++ {
			hEq := interned[i].intern == interned[j].intern
			sEq := interned[i].String() == interned[j].String()
			if hEq != sEq {
				t.Fatalf("handle equality %v but String equality %v for\n  %s\n  %s",
					hEq, sEq, interned[i], interned[j])
			}
			if hEq {
				same++
			} else {
				diff++
			}
		}
	}
	if same == 0 || diff == 0 {
		t.Fatalf("degenerate fixture: %d equal pairs, %d distinct pairs", same, diff)
	}
}

// TestInternKeyDistinguishesConflicts documents why handles intern the
// full key, not the wire string: an ill-behaved pair agreeing on String()
// but differing in conflict points must get distinct handles, or merging
// through handle equality would erase a real validation conflict.
func TestInternKeyDistinguishesConflicts(t *testing.T) {
	pts := harvestPoints(t, 4)
	a := Assertion{Module: "m", Kind: "k", Points: pts[:1], Cost: 3}
	b := a
	b.Conflicts = []Point{pts[1]}
	it := NewInterner()
	ia, ib := it.assert(a), it.assert(b)
	if ia.String() != ib.String() {
		t.Fatal("fixture broken: wire identities differ")
	}
	if ia.intern == ib.intern {
		t.Fatal("assertions with different conflict sets share a handle")
	}
	if it.Len() != 2 {
		t.Fatalf("interner holds %d identities, want 2", it.Len())
	}
}

// TestInternOptionsFastPaths pins the no-copy guarantees: assertion-free
// and already-interned option sets pass through options() with the input
// backing array untouched and zero allocation, and re-interning is
// idempotent (same handles, no growth).
func TestInternOptionsFastPaths(t *testing.T) {
	pts := harvestPoints(t, 5)
	it := NewInterner()

	free := []Option{{}, {}}
	if got := it.InternOptions(free); &got[0] != &free[0] {
		t.Error("assertion-free set was copied")
	}
	if allocs := testing.AllocsPerRun(100, func() { it.InternOptions(free) }); !raceEnabled && allocs != 0 {
		t.Errorf("assertion-free intern allocates %.1f/op, want 0", allocs)
	}

	r := rand.New(rand.NewSource(7))
	raw := []Option{{Asserts: []Assertion{genAssertion(r, pts), genAssertion(r, pts)}}}
	once := it.InternOptions(raw)
	if &once[0] == &raw[0] {
		t.Error("un-interned set was not copied")
	}
	if raw[0].Asserts[0].intern != nil {
		t.Error("interning mutated the caller's assertion in place")
	}
	n := it.Len()
	twice := it.InternOptions(once)
	if &twice[0] != &once[0] {
		t.Error("re-interning an interned set copied it")
	}
	if it.Len() != n {
		t.Errorf("idempotent re-intern grew the table: %d -> %d", n, it.Len())
	}
	if allocs := testing.AllocsPerRun(100, func() { it.InternOptions(once) }); !raceEnabled && allocs != 0 {
		t.Errorf("already-interned intern allocates %.1f/op, want 0", allocs)
	}
}
