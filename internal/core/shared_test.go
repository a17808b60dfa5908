package core

import (
	"fmt"
	"testing"

	"scaf/internal/ir"
)

// BenchmarkSharedCache times the shared cache's two operations on a
// top-level query's path: a hit on a resident mod-ref entry, and the
// publication of an entry that rests on an assertion. A Revoker is
// attached, as in a serving session, so both run its check. The
// bench-mem CI gate pins allocs/op of each (see Makefile bench-mem).
func BenchmarkSharedCache(b *testing.B) {
	const n = 4096
	in := NewInterner()
	keys := make([]modrefKey, n)
	resps := make([]ModRefResponse, n)
	for i := range keys {
		keys[i] = keyOfModRef(&ModRefQuery{Loc: MemLoc{Ptr: ir.CI(int64(i)), Size: 8}, Rel: Before})
		r := ModRefSpec(NoModRef, "spec", Assertion{Module: "spec", Kind: fmt.Sprintf("k%d", i%16), Cost: 1})
		r.Options = in.options(r.Options)
		resps[i] = r
	}
	b.Run("hit", func(b *testing.B) {
		sc := NewSharedCache()
		sc.SetRevoker(newStubRevoker())
		for i := range keys {
			sc.putModRef(keys[i], resps[i])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, _ := sc.getModRef(keys[i%n], nil, false); !ok {
				b.Fatal("a resident entry missed")
			}
		}
	})
	b.Run("publish", func(b *testing.B) {
		sc := NewSharedCache()
		sc.SetRevoker(newStubRevoker())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Every key is published once per round; a new round starts
			// from an empty cache, emptied off the clock.
			if i%n == 0 && i > 0 {
				b.StopTimer()
				sc.Flush()
				b.StartTimer()
			}
			sc.putModRef(keys[i%n], resps[i%n])
		}
	})
}
