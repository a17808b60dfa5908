package predstore

import (
	"fmt"
	"math/rand"
	"testing"
)

// revokedSet is a Revoker over a set of assertion keys.
type revokedSet map[string]bool

func (r revokedSet) RevokedAssert(key string) bool { return r[key] }

// checkInvariants fails t unless the store's structures agree: every row
// names a resident entry that carries its assertion, every entry is
// indexed under each of its assertions, the hash chains and the free list
// partition the slots, and the bytes counter is exact.
func checkInvariants[K Key, V any](t *testing.T, s *Store[K, V]) {
	t.Helper()
	count := func(xs []string, x string) int {
		n := 0
		for _, y := range xs {
			if y == x {
				n++
			}
		}
		return n
	}
	for a, row := range s.rows {
		if len(row) == 0 {
			t.Fatalf("the store keeps an empty row under %q", a)
		}
		for _, i := range row {
			sl := s.slots[i]
			if sl.size == 0 {
				t.Fatalf("row %q names free slot %d", a, i)
			}
			if count(sl.asserts, a) == 0 {
				t.Fatalf("row %q names %v, which does not carry it (asserts %v)", a, sl.key, sl.asserts)
			}
		}
	}
	chained := map[int32]bool{}
	for h, i := range s.heads {
		for ; i >= 0; i = s.slots[i].next {
			if sl := s.slots[i]; sl.size == 0 || sl.key.Hash() != h || chained[i] {
				t.Fatalf("the chain of hash %x names free, misplaced or repeated slot %d", h, i)
			}
			chained[i] = true
		}
	}
	var bytes int64
	resident := 0
	for i, sl := range s.slots {
		if sl.size == 0 {
			continue
		}
		resident++
		if j, ok := s.find(sl.key, sl.key.Hash()); !ok || int(j) != i {
			t.Fatalf("slot %d holds %v, but a lookup finds %d,%v", i, sl.key, j, ok)
		}
		bytes += sl.size
		for _, a := range sl.asserts {
			in := 0
			for _, x := range s.rows[a] {
				if int(x) == i {
					in++
				}
			}
			if in != count(sl.asserts, a) {
				t.Fatalf("%v carries %q %d times but its row names it %d times", sl.key, a, count(sl.asserts, a), in)
			}
		}
	}
	if resident != len(chained) || resident != s.Len() {
		t.Fatalf("%d resident slots, %d chained, Len %d", resident, len(chained), s.Len())
	}
	freed := map[int32]bool{}
	for _, i := range s.free {
		if s.slots[i].size != 0 || freed[i] {
			t.Fatalf("free list names resident or repeated slot %d", i)
		}
		freed[i] = true
	}
	if resident+len(s.free) != len(s.slots) {
		t.Fatalf("%d resident + %d free slots, want %d", resident, len(s.free), len(s.slots))
	}
	if bytes != s.bytes {
		t.Fatalf("bytes counter %d, resident entries sum to %d", s.bytes, bytes)
	}
}

// TestPutRule: the first entry of a key wins until one of its assertions
// is revoked; then a Put replaces it and its old rows go with it. An
// entry resting on a revoked assertion, or larger than the budget, is
// refused and displaces nothing.
func TestPutRule(t *testing.T) {
	var s Store[String, int] // the zero value is usable
	rev := revokedSet{}
	if got := s.Put("k", 1, []string{"a1", "a2"}, 10, rev); got != Inserted {
		t.Fatalf("first put: %v", got)
	}
	if got := s.Put("k", 2, []string{"a3"}, 10, rev); got != Resident {
		t.Fatalf("second put of a resident key: %v", got)
	}
	rev["a9"] = true
	if got := s.Put("j", 3, []string{"a9"}, 10, rev); got != Revoked || s.Len() != 1 {
		t.Fatalf("put resting on a revoked assertion: %v, %d resident", got, s.Len())
	}
	rev["a1"] = true
	if _, _, ok := s.Get("k", rev); ok || s.Len() != 1 {
		t.Fatalf("an entry resting on a revoked assertion answered, or left: hit %v, %d resident", ok, s.Len())
	}
	if got := s.Put("k", 4, []string{"a3"}, 10, rev); got != Inserted {
		t.Fatalf("put over a revoked resident entry: %v", got)
	}
	if v, asserts, ok := s.Get("k", rev); !ok || *v != 4 || len(asserts) != 1 || s.Indexed() != 1 {
		t.Fatalf("replacement: hit %v, asserts %v, %d rows", ok, asserts, s.Indexed())
	}
	checkInvariants(t, &s)

	var evicted []String
	s.SetBudget(25, func(k String) { evicted = append(evicted, k) })
	if got := s.Put("huge", 5, nil, 26, rev); got != TooLarge || s.Len() != 1 || len(evicted) != 1 {
		t.Fatalf("put larger than the budget: %v, %d resident, evicted %v", got, s.Len(), evicted)
	}
	s.Put("m", 6, nil, 20, rev)
	if s.Len() != 1 || len(evicted) != 2 || evicted[1] != "k" {
		t.Fatalf("put past the budget: %d resident, evicted %v", s.Len(), evicted)
	}
	checkInvariants(t, &s)
}

// pairKey is a struct key, as core's proposition keys are. Its hash is
// deliberately poor, so that most keys share a chain with others.
type pairKey struct {
	a, b int
	name string
}

func (k pairKey) Hash() uint64 { return uint64(k.a) }

// TestStoreInvariantsUnderMixedOps drives a budgeted string-keyed store
// and an unbounded struct-keyed one through a seeded mix of every
// mutation and checks the invariants after each.
func TestStoreInvariantsUnderMixedOps(t *testing.T) {
	t.Run("budgeted", func(t *testing.T) {
		var s Store[String, []byte]
		evictions := 0
		s.SetBudget(4<<10, func(String) { evictions++ })
		runMix(t, &s, func(i int) String { return String(fmt.Sprintf("k%d", i)) },
			func(k String, v []byte, asserts []string) int64 {
				n := int64(96 + len(k) + len(v))
				for _, a := range asserts {
					n += int64(16 + len(a))
				}
				return n
			})
		if evictions == 0 {
			t.Fatal("vacuous mix: nothing was evicted")
		}
	})
	t.Run("unbounded", func(t *testing.T) {
		var s Store[pairKey, []byte]
		runMix(t, &s, func(i int) pairKey { return pairKey{i % 7, i / 7, "q"} },
			func(pairKey, []byte, []string) int64 { return 1 })
	})
}

// runMix applies a seeded mix of puts, hits, removals, revocations with
// and without invalidation, replacements of revoked entries, oversize
// puts and flushes to s.
func runMix[K Key](t *testing.T, s *Store[K, []byte], key func(int) K, size func(K, []byte, []string) int64) {
	rng := rand.New(rand.NewSource(1))
	rev := revokedSet{}
	asserts := []string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"}
	// fresh picks assertions nothing has revoked yet.
	fresh := func() []string {
		var as []string
		for n := rng.Intn(4); n > 0; n-- {
			if a := asserts[rng.Intn(len(asserts))]; !rev[a] {
				as = append(as, a)
			}
		}
		return as
	}
	put := func(k K, as []string) Outcome {
		v := make([]byte, rng.Intn(300))
		return s.Put(k, v, as, size(k, v, as), rev)
	}
	revoke := func(a string) {
		rev[a] = true
		asserts = append(asserts, fmt.Sprintf("a%d", len(asserts)))
	}
	var invalidated, replaced int
	for step := 0; step < 5000; step++ {
		k := key(rng.Intn(60))
		switch r := rng.Intn(100); {
		case r < 45:
			put(k, fresh())
		case r < 65:
			if _, as, ok := s.Get(k, rev); ok {
				for _, a := range as {
					if rev[a] {
						t.Fatalf("Get served %v, resting on revoked %q", k, a)
					}
				}
			}
		case r < 70:
			s.Remove(k)
		case r < 75:
			// Revoked, but not yet invalidated: its entries stay resident
			// and miss.
			revoke(asserts[rng.Intn(len(asserts))])
		case r < 80:
			a := asserts[rng.Intn(len(asserts))]
			revoke(a)
			before := s.Len()
			gone := s.Invalidate([]string{a}, nil)
			if s.Len() != before-len(gone) {
				t.Fatalf("invalidating %q reported %d entries, removed %d", a, len(gone), before-s.Len())
			}
			for _, g := range gone {
				if _, _, ok := s.Get(g, nil); ok {
					t.Fatalf("invalidated %v is still resident", g)
				}
			}
			invalidated += len(gone)
		case r < 92:
			// A put over a resident entry whose assertion has since been
			// revoked replaces it and drops its old rows.
			if _, as, ok := s.Get(k, rev); ok && len(as) > 0 {
				revoke(as[0])
				if got := put(k, fresh()); got != Inserted {
					t.Fatalf("put over %v, resting on revoked %q: %v", k, as[0], got)
				}
				replaced++
			}
		case r < 97:
			if s.budget > 0 {
				n := s.Len()
				v := make([]byte, s.budget)
				if got := s.Put(k, v, nil, s.budget+1, rev); got != TooLarge && got != Resident {
					t.Fatalf("put larger than the budget: %v", got)
				}
				if s.Len() != n {
					t.Fatal("an oversize put displaced an entry")
				}
			}
		default:
			s.Flush()
		}
		checkInvariants(t, s)
	}
	if invalidated == 0 || replaced == 0 {
		t.Fatalf("vacuous mix: %d invalidated, %d replaced", invalidated, replaced)
	}
}
