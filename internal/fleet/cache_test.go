package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// checkCacheInvariants fails t unless the shard's structures agree:
// every index row names a resident entry that carries that assertion,
// every resident entry is indexed under each of its assertions, the key
// map and the free list partition the slots, and the bytes counter
// equals the sum over resident entries and sits within the budget.
func checkCacheInvariants(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.RLock()
	defer c.mu.RUnlock()
	count := func(xs []string, x string) int {
		n := 0
		for _, y := range xs {
			if y == x {
				n++
			}
		}
		return n
	}
	for a, row := range c.index {
		if len(row) == 0 {
			t.Fatalf("index keeps an empty row under %q", a)
		}
		for _, i := range row {
			s := c.slots[i]
			if s.size == 0 {
				t.Fatalf("index row %q names free slot %d", a, i)
			}
			if c.keys[s.key] != i {
				t.Fatalf("index row %q names slot %d, which the key map does not", a, i)
			}
			if n := count(s.asserts, a); n == 0 {
				t.Fatalf("index row %q names %q, which does not carry it (asserts %v)", a, s.key, s.asserts)
			}
		}
	}
	var bytes int64
	resident := 0
	for i, s := range c.slots {
		if s.size == 0 {
			continue
		}
		resident++
		if j, ok := c.keys[s.key]; !ok || int(j) != i {
			t.Fatalf("slot %d holds %q, but the key map says %d,%v", i, s.key, j, ok)
		}
		if want := entryBytes(Entry{Key: s.key, Value: s.value, Asserts: s.asserts}); s.size != want {
			t.Fatalf("slot %d accounts %d bytes, want %d", i, s.size, want)
		}
		bytes += s.size
		for _, a := range s.asserts {
			if c.revoked[a] {
				t.Fatalf("resident %q is predicated on revoked %q", s.key, a)
			}
			in := 0
			for _, x := range c.index[a] {
				if int(x) == i {
					in++
				}
			}
			if in != count(s.asserts, a) {
				t.Fatalf("%q carries %q %d times but its row names it %d times", s.key, a, count(s.asserts, a), in)
			}
		}
	}
	if resident != len(c.keys) {
		t.Fatalf("%d resident slots, %d keys", resident, len(c.keys))
	}
	if resident+len(c.free) != len(c.slots) {
		t.Fatalf("%d resident + %d free slots, want %d", resident, len(c.free), len(c.slots))
	}
	for _, i := range c.free {
		if c.slots[i].size != 0 {
			t.Fatalf("free list names resident slot %d", i)
		}
	}
	if bytes != c.bytes {
		t.Fatalf("bytes counter %d, resident entries sum to %d", c.bytes, bytes)
	}
	if c.bytes > c.budget {
		t.Fatalf("shard holds %d bytes over its %d budget", c.bytes, c.budget)
	}
}

// TestCacheInvalidateDropsEveryRow: invalidating one assertion removes
// its entries from the rows of their other assertions too. Before the
// shared removal path, k1 stayed listed under a2 after it was gone.
func TestCacheInvalidateDropsEveryRow(t *testing.T) {
	c := NewCache(0)
	c.Put(Entry{Key: "k1", Value: []byte("v1"), Asserts: []string{"a1", "a2"}})
	c.Put(Entry{Key: "k2", Value: []byte("v2"), Asserts: []string{"a2"}})
	if n := c.InvalidateAsserts([]string{"a1"}); n != 1 {
		t.Fatalf("invalidated %d entries, want 1 (k1)", n)
	}
	checkCacheInvariants(t, c)
	if row := c.index["a2"]; len(row) != 1 || c.slots[row[0]].key != "k2" {
		t.Fatalf("index[a2] names %d entries, want only k2", len(row))
	}
	if n := c.InvalidateAsserts([]string{"a2"}); n != 1 {
		t.Fatalf("invalidated %d entries under a2, want 1 (k2)", n)
	}
	checkCacheInvariants(t, c)
	if len(c.index) != 0 || c.Len() != 0 || c.Stats().Bytes != 0 {
		t.Fatalf("empty shard keeps %d index rows, %d entries, %d bytes", len(c.index), c.Len(), c.Stats().Bytes)
	}
}

// TestCacheInvariantsUnderMixedOps drives a small-budget shard through
// a seeded mix of every mutation and checks the invariants after each.
func TestCacheInvariantsUnderMixedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	asserts := []string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"}
	entry := func() Entry {
		e := Entry{Key: fmt.Sprintf("k%d", rng.Intn(60)), Value: make([]byte, rng.Intn(300))}
		for n := rng.Intn(4); n > 0; n-- {
			e.Asserts = append(e.Asserts, asserts[rng.Intn(len(asserts))])
		}
		return e
	}
	c := NewCache(4 << 10)
	var evictions int
	c.SetEvictHook(func(string) { evictions++ })
	for step := 0; step < 5000; step++ {
		switch r := rng.Intn(100); {
		case r < 50:
			c.Put(entry())
		case r < 75:
			c.Get(fmt.Sprintf("k%d", rng.Intn(60)))
		case r < 80:
			c.GetBatch([]string{fmt.Sprintf("k%d", rng.Intn(60)), fmt.Sprintf("k%d", rng.Intn(60))})
		case r < 84:
			// Revoke rarely, so most assertions stay usable.
			c.InvalidateAsserts([]string{fmt.Sprintf("a%d", 8+rng.Intn(3)), asserts[rng.Intn(len(asserts))]})
			asserts = append(asserts, fmt.Sprintf("a%d", len(asserts)))
		case r < 94:
			es := make([]Entry, rng.Intn(20))
			for i := range es {
				es[i] = entry()
			}
			c.Restore([]string{fmt.Sprintf("a%d", 100+rng.Intn(5))}, es)
		case r < 97:
			c.PutBatch([]Entry{entry(), entry(), {Key: "big", Value: make([]byte, 5<<10)}})
		default:
			c.Flush()
		}
		checkCacheInvariants(t, c)
	}
	st := c.Stats()
	if st.Evicted == 0 || st.Invalidated == 0 || st.Puts == 0 {
		t.Fatalf("vacuous mix: %+v", st)
	}
	if int64(evictions) != st.Evicted {
		t.Fatalf("evict hook saw %d evictions, stats count %d", evictions, st.Evicted)
	}
}

// TestCacheClockEviction: past its budget the shard evicts the first
// entry the hand finds unreferenced, a hit saves an entry for one sweep,
// an entry larger than the budget is refused as one eviction without
// displacing anything, and the revoked set is never evicted.
func TestCacheClockEviction(t *testing.T) {
	val := make([]byte, 100)
	size := entryBytes(Entry{Key: "k0", Value: val})
	c := NewCache(3 * size)
	var evicted []string
	c.SetEvictHook(func(k string) { evicted = append(evicted, k) })
	c.InvalidateAsserts([]string{"gone"})
	for _, k := range []string{"k0", "k1", "k2"} {
		if !c.Put(Entry{Key: k, Value: val}) {
			t.Fatalf("put %s rejected under budget", k)
		}
	}
	c.Get("k0")
	c.Put(Entry{Key: "k3", Value: val}) // k0 is referenced: the hand clears it and takes k1
	c.Put(Entry{Key: "k4", Value: val}) // then k2
	if !reflect.DeepEqual(evicted, []string{"k1", "k2"}) {
		t.Fatalf("evicted %v, want [k1 k2]", evicted)
	}
	if c.Put(Entry{Key: "huge", Value: make([]byte, 3*size)}) {
		t.Fatal("an entry larger than the budget was admitted")
	}
	if want := []string{"k1", "k2", "huge"}; !reflect.DeepEqual(evicted, want) {
		t.Fatalf("evicted %v, want %v", evicted, want)
	}
	got := c.SnapshotEntries()
	if len(got) != 3 || got[0].Key != "k0" || got[1].Key != "k3" || got[2].Key != "k4" {
		t.Fatalf("resident %v, want k0 k3 k4", got)
	}
	if st := c.Stats(); st.Evicted != 3 || st.Bytes != 3*size || st.Budget != 3*size {
		t.Fatalf("stats %+v, want 3 evicted and %d of %d bytes", st, 3*size, 3*size)
	}
	if !c.AnyRevoked([]string{"gone"}) || c.Put(Entry{Key: "k5", Value: val, Asserts: []string{"gone"}}) {
		t.Fatal("eviction forgot a revocation")
	}
	checkCacheInvariants(t, c)
}

// TestCacheRestoreAboveBudget: restoring more than the budget holds
// ends at or under it with the same resident set every time, and an
// entry predicated on a restored revocation stays out.
func TestCacheRestoreAboveBudget(t *testing.T) {
	var es []Entry
	for i := 0; i < 100; i++ {
		es = append(es, Entry{Key: fmt.Sprintf("k%03d", i), Value: make([]byte, 200), Asserts: []string{fmt.Sprintf("a%d", i%7)}})
	}
	restore := func() *Cache {
		c := NewCache(4 << 10)
		c.Restore([]string{"a3"}, es)
		checkCacheInvariants(t, c)
		return c
	}
	c1, c2 := restore(), restore()
	if st := c1.Stats(); st.Evicted == 0 || st.Bytes > st.Budget {
		t.Fatalf("restore of %d entries: %+v, want evictions and bytes within the budget", len(es), st)
	}
	if !reflect.DeepEqual(c1.SnapshotEntries(), c2.SnapshotEntries()) {
		t.Fatal("two restores of one snapshot kept different entries")
	}
	for _, e := range c1.SnapshotEntries() {
		if e.Asserts[0] == "a3" {
			t.Fatalf("%s is predicated on revoked a3 but was restored", e.Key)
		}
	}
}
