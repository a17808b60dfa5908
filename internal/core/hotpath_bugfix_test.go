package core

import (
	"testing"

	"scaf/internal/cfg"
	"scaf/internal/ir"
	"scaf/internal/lower"
	"scaf/internal/mcgen"
)

// TestOptionAssertKeysZeroAssertFastPath pins the publication fast path:
// collecting the supporting-assertion keys of an assertion-free option set
// (the common NoDep case) must allocate nothing at all — no seen map, no
// slice — and return nil.
func TestOptionAssertKeysZeroAssertFastPath(t *testing.T) {
	opts := []Option{{}, {}, {}}
	if got := optionAssertKeys(opts); got != nil {
		t.Fatalf("assertion-free options produced keys %v, want nil", got)
	}
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if optionAssertKeys(opts) != nil {
			t.Fatal("non-nil keys")
		}
	})
	if allocs != 0 {
		t.Fatalf("optionAssertKeys allocated %.1f objects per assertion-free call, want 0", allocs)
	}
}

// TestOptionAssertKeysSingleInterned pins the other allocation-free
// path: options that all rest on one interned assertion yield its key
// alone, shared from the handle.
func TestOptionAssertKeysSingleInterned(t *testing.T) {
	a := NewInterner().assert(Assertion{Module: "m", Kind: "k", Cost: 1})
	opts := []Option{{Asserts: []Assertion{a}}, {Asserts: []Assertion{a, a}}}
	if keys := optionAssertKeys(opts); len(keys) != 1 || keys[0] != a.String() {
		t.Fatalf("keys = %v, want [%s]", keys, a.String())
	}
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	if allocs := testing.AllocsPerRun(100, func() { optionAssertKeys(opts) }); allocs != 0 {
		t.Fatalf("optionAssertKeys allocated %.1f objects per call, want 0", allocs)
	}
}

// TestOptionAssertKeysAllocBound pins the assert-carrying path to "the
// unavoidable String() materializations plus one preallocated key slice".
// The old implementation paid a seen-map plus append-regrowth on top of
// that; this bound fails if either comes back.
func TestOptionAssertKeysAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	a1 := Assertion{Module: "m", Kind: "beta", Cost: 1}
	a2 := Assertion{Module: "m", Kind: "alpha", Cost: 2}
	a3 := Assertion{Module: "m", Kind: "gamma", Cost: 3}
	opts := []Option{
		{Asserts: []Assertion{a1}},
		{Asserts: []Assertion{a2, a1, a3}}, // a1 repeats
	}
	// Calibrate: optionAssertKeys must render every assert occurrence once.
	base := testing.AllocsPerRun(100, func() {
		for _, o := range opts {
			for i := range o.Asserts {
				_ = o.Asserts[i].String()
			}
		}
	})
	got := testing.AllocsPerRun(100, func() { optionAssertKeys(opts) })
	if got > base+1 {
		t.Fatalf("optionAssertKeys allocates %.1f/call over %.1f for the String() calls alone; want at most +1 (the key slice)", got, base)
	}
}

// TestOptionAssertKeysStillCollects guards the slow path the fast path
// sits in front of: assertions across options are collected, deduplicated,
// and sorted by their wire identity.
func TestOptionAssertKeysStillCollects(t *testing.T) {
	a1 := Assertion{Module: "m", Kind: "beta", Cost: 1}
	a2 := Assertion{Module: "m", Kind: "alpha", Cost: 2}
	keys := optionAssertKeys([]Option{
		{Asserts: []Assertion{a1}},
		{Asserts: []Assertion{a2, a1}}, // a1 repeats across options
		{},
	})
	if len(keys) != 2 || keys[0] != a2.String() || keys[1] != a1.String() {
		t.Fatalf("keys = %v, want sorted [%s %s]", keys, a2.String(), a1.String())
	}
}

// unknownValue stands in for a future ir.Value kind valueID's switch does
// not know about.
type unknownValue struct{ name string }

func (u unknownValue) Type() ir.Type  { return ir.Int }
func (u unknownValue) String() string { return u.name }

// TestValueIDUnknownKindsSpread pins the per-type-discriminant rule:
// distinct values of an unenumerated ir.Value kind must not collapse onto
// one constant (which would serialize a whole cache shard), and the
// discriminant must differ from the enumerated kinds' buckets.
func TestValueIDUnknownKindsSpread(t *testing.T) {
	shards := map[uint64]bool{}
	for _, name := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		shards[valueID(unknownValue{name: name})%sharedShards] = true
	}
	if len(shards) < 4 {
		t.Fatalf("8 distinct unknown values landed in %d shards, want >= 4 (constant-funnel regression)", len(shards))
	}
	// The previously-unhandled const kinds get value-dependent IDs too.
	if valueID(ir.CF(1.5)) == valueID(ir.CF(2.5)) {
		t.Error("distinct ConstFloats share a valueID")
	}
	if valueID(ir.CF(1.5)) == valueID(ir.CI(1)) {
		t.Error("ConstFloat collides with ConstInt on the type discriminant")
	}
	if valueID(ir.Null(ir.PointerTo(ir.Int))) == valueID(nil) {
		t.Error("ConstNull collides with nil")
	}
}

// TestValueIDShardDistribution drives valueID over every operand value of
// a batch of mcgen-generated programs and checks the shard distribution:
// no single shard may absorb the bulk of the values. This is the test that
// catches a future IR value kind quietly hashing to a constant.
func TestValueIDShardDistribution(t *testing.T) {
	counts := map[uint64]int{}
	total := 0
	for seed := int64(1); seed <= 6; seed++ {
		mod, err := lower.Compile("gen", mcgen.New(seed).Program())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prog := cfg.NewProgram(mod)
		for _, g := range mod.Globals {
			counts[valueID(g)%sharedShards]++
			total++
		}
		for _, fn := range prog.Mod.Funcs {
			for _, p := range fn.Params {
				counts[valueID(p)%sharedShards]++
				total++
			}
			fn.Instrs(func(in *ir.Instr) {
				counts[valueID(in)%sharedShards]++
				total++
				for _, arg := range in.Args {
					counts[valueID(arg)%sharedShards]++
					total++
				}
			})
		}
	}
	if total < 200 {
		t.Fatalf("fixture too small: %d values", total)
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if len(counts) < sharedShards/4 {
		t.Fatalf("%d values hit only %d/%d shards", total, len(counts), sharedShards)
	}
	if frac := float64(max) / float64(total); frac > 0.25 {
		t.Fatalf("hottest shard absorbs %.0f%% of %d values (want <= 25%%): a value kind is funneling", 100*frac, total)
	}
}
