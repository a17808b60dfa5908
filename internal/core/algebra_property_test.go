package core

import (
	"math/rand"
	"slices"
	"testing"

	"scaf/internal/ir"
)

// genOptions builds a random option set over a small assertion vocabulary,
// including conflicting pairs (shared conflict points).
func genOptions(rng *rand.Rand, points []Point) []Option {
	nOpts := 1 + rng.Intn(3)
	out := make([]Option, 0, nOpts)
	for i := 0; i < nOpts; i++ {
		var o Option
		for a := 0; a < rng.Intn(3); a++ {
			as := Assertion{
				Module: []string{"m1", "m2", "m3"}[rng.Intn(3)],
				Kind:   []string{"k1", "k2"}[rng.Intn(2)],
				Cost:   float64(rng.Intn(5)),
			}
			if rng.Intn(2) == 0 {
				as.Points = []Point{points[rng.Intn(len(points))]}
			}
			if rng.Intn(3) == 0 {
				as.Conflicts = []Point{points[rng.Intn(len(points))]}
			}
			o.Asserts = append(o.Asserts, as)
		}
		out = append(out, o)
	}
	return out
}

func optionSetKeys(s []Option) map[string]bool {
	out := map[string]bool{}
	for _, o := range s {
		out[o.String()] = true
	}
	return out
}

func sameOptionSet(a, b []Option) bool {
	ka, kb := optionSetKeys(a), optionSetKeys(b)
	if len(ka) != len(kb) {
		return false
	}
	for k := range ka {
		if !kb[k] {
			return false
		}
	}
	return true
}

func testPoints() []Point {
	g1 := &ir.Global{GName: "p1", Elem: ir.Int}
	g2 := &ir.Global{GName: "p2", Elem: ir.Int}
	g3 := &ir.Global{GName: "p3", Elem: ir.Int}
	return []Point{{G: g1}, {G: g2}, {G: g3}}
}

// TestUnionProperties: commutative, idempotent, preserves membership.
func TestUnionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := testPoints()
	for trial := 0; trial < 200; trial++ {
		s1 := genOptions(rng, pts)
		s2 := genOptions(rng, pts)
		u12 := UnionOptions(s1, s2)
		u21 := UnionOptions(s2, s1)
		if !sameOptionSet(u12, u21) {
			t.Fatalf("union not commutative:\n%v\n%v", u12, u21)
		}
		if !sameOptionSet(UnionOptions(s1, s1), dedupeOptions(s1)) {
			t.Fatalf("union not idempotent")
		}
		keys := optionSetKeys(u12)
		for _, o := range append(append([]Option{}, s1...), s2...) {
			if !keys[o.String()] {
				t.Fatalf("union lost member %v", o)
			}
		}
	}
}

// TestCrossProperties: commutative up to option content; every surviving
// combination is conflict-free and its cost is at most the sum of parts
// (deduplication can only lower it).
func TestCrossProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := testPoints()
	for trial := 0; trial < 200; trial++ {
		s1 := genOptions(rng, pts)
		s2 := genOptions(rng, pts)
		c12 := CrossOptions(s1, s2)
		c21 := CrossOptions(s2, s1)
		if !sameOptionSet(c12, c21) {
			t.Fatalf("cross not commutative")
		}
		if OptionsConflict(s1, s2) != (len(c12) == 0) {
			t.Fatalf("OptionsConflict disagrees with empty cross")
		}
		// Cost bound and internal consistency of each combination.
		maxCost := 0.0
		for _, o1 := range s1 {
			for _, o2 := range s2 {
				if c := o1.Cost() + o2.Cost(); c > maxCost {
					maxCost = c
				}
			}
		}
		for _, o := range c12 {
			if o.Cost() > maxCost+1e-9 {
				t.Fatalf("cross option costs %g > max %g", o.Cost(), maxCost)
			}
			taken := map[Point]string{}
			for _, a := range o.Asserts {
				for _, cp := range a.Conflicts {
					if owner, clash := taken[cp]; clash && owner != a.key() {
						t.Fatalf("conflicting assertions survived the cross: %v", o)
					}
					taken[cp] = a.key()
				}
			}
		}
	}
}

// TestCheapestOf returns a member with minimal cost.
func TestCheapestOfProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := testPoints()
	for trial := 0; trial < 200; trial++ {
		s := genOptions(rng, pts)
		c := CheapestOf(s)
		if len(c) != 1 {
			t.Fatalf("CheapestOf size %d", len(c))
		}
		for _, o := range s {
			if c[0].Cost() > o.Cost()+1e-9 {
				t.Fatalf("not cheapest: %g > %g", c[0].Cost(), o.Cost())
			}
		}
	}
}

// randResp builds a random alias response.
func randResp(rng *rand.Rand, pts []Point) AliasResponse {
	results := []AliasResult{MayAlias, PartialAlias, SubAlias, MustAlias, NoAlias}
	r := AliasResponse{Result: results[rng.Intn(len(results))]}
	if rng.Intn(3) == 0 {
		r.Options = Unconditional()
	} else {
		r.Options = genOptions(rng, pts)
	}
	return r
}

// TestJoinMonotone: joining can never lose precision, and the result's
// precision equals the max of the operands'.
func TestJoinMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := testPoints()
	o := NewOrchestrator(Config{})
	for trial := 0; trial < 500; trial++ {
		r1 := randResp(rng, pts)
		r2 := randResp(rng, pts)
		j := o.joinAlias(r1, r2)
		maxPr := aliasPrecision(r1.Result)
		if p := aliasPrecision(r2.Result); p > maxPr {
			maxPr = p
		}
		if aliasPrecision(j.Result) != maxPr {
			t.Fatalf("join precision %d, want %d (%s + %s = %s)",
				aliasPrecision(j.Result), maxPr, r1.Result, r2.Result, j.Result)
		}
	}
}

// TestModRefJoinLattice: the Mod x Ref cross and the precision order.
func TestModRefJoinLattice(t *testing.T) {
	o := NewOrchestrator(Config{})
	mk := func(r ModRefResult) ModRefResponse {
		return ModRefResponse{Result: r, Options: Unconditional()}
	}
	cases := []struct {
		a, b, want ModRefResult
	}{
		{ModRef, ModRef, ModRef},
		{ModRef, Mod, Mod},
		{ModRef, Ref, Ref},
		{ModRef, NoModRef, NoModRef},
		{Mod, Ref, NoModRef}, // the special cross
		{Ref, Mod, NoModRef},
		{Mod, Mod, Mod},
		{Ref, Ref, Ref},
		{NoModRef, Mod, NoModRef},
	}
	for _, c := range cases {
		if got := o.joinModRef(mk(c.a), mk(c.b)); got.Result != c.want {
			t.Errorf("join(%s, %s) = %s, want %s", c.a, c.b, got.Result, c.want)
		}
	}
}

// TestMergeContribsProperties: dedupe + sorted.
func TestMergeContribsProperties(t *testing.T) {
	got := MergeContribs([]string{"b", "a"}, []string{"a", "c"}, nil, []string{"b"})
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestMergeContribsLinear: canonical lists merge to the union the
// map-and-sort path builds, and a list that already contains the other is
// returned itself instead of copied.
func TestMergeContribsLinear(t *testing.T) {
	names := []string{"basic-objects", "callee-summary", "control-spec", "kill-flow", "points-to", "read-only", "tbaa"}
	rng := rand.New(rand.NewSource(3))
	pick := func() []string {
		var l []string
		for _, n := range names {
			if rng.Intn(3) == 0 {
				l = append(l, n)
			}
		}
		return l
	}
	for i := 0; i < 500; i++ {
		a, b := pick(), pick()
		got := MergeContribs(a, b)
		if want := mergeUnsorted([][]string{a, b}); !slices.Equal(got, want) {
			t.Fatalf("MergeContribs(%v, %v) = %v, want %v", a, b, got, want)
		}
		switch {
		case len(a) > 0 && subset(b, a):
			if &got[0] != &a[0] {
				t.Errorf("MergeContribs(%v, %v) copied a list that contains the other", a, b)
			}
		case len(b) > 0 && subset(a, b):
			if &got[0] != &b[0] {
				t.Errorf("MergeContribs(%v, %v) copied a list that contains the other", a, b)
			}
		}
	}
}

// TestOptionFiltersPassCleanSetsThrough: AffordableOptions drops
// prohibitive options in order and dedupeOptions drops repeats, and each
// returns a set it has nothing to drop from as is.
func TestOptionFiltersPassCleanSetsThrough(t *testing.T) {
	cheap := Option{Asserts: []Assertion{{Module: "m", Kind: "cheap", Cost: 2}}}
	dear := Option{Asserts: []Assertion{{Module: "m", Kind: "dear", Cost: Prohibitive}}}
	clean := []Option{cheap, {}}
	if got := AffordableOptions(clean); &got[0] != &clean[0] {
		t.Error("AffordableOptions copied a set with nothing to filter")
	}
	if got := dedupeOptions(clean); &got[0] != &clean[0] {
		t.Error("dedupeOptions copied a set without duplicates")
	}
	if got := AffordableOptions([]Option{cheap, dear, {}, dear}); len(got) != 2 || got[0].Cost() != 2 || !got[1].Free() {
		t.Errorf("AffordableOptions kept %v, want [cheap, free]", got)
	}
	if got := AffordableOptions([]Option{dear}); len(got) != 0 {
		t.Errorf("AffordableOptions kept %v of an all-prohibitive set", got)
	}
	if got := dedupeOptions([]Option{cheap, {}, cheap, dear, {}}); len(got) != 3 || got[0].Cost() != 2 || !got[1].Free() || got[2].Cost() != Prohibitive {
		t.Errorf("dedupeOptions kept %v, want [cheap, free, dear]", got)
	}
}
