package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"scaf/internal/predstore"
)

// checkCacheInvariants fails t unless the shard's accounting holds: the
// bytes counter equals the sum of entryBytes over resident entries and
// sits within the budget, and no resident entry rests on a revoked key.
// The store's own structure is predstore's to check.
func checkCacheInvariants(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.RLock()
	defer c.mu.RUnlock()
	var bytes int64
	c.entries.Each(func(k predstore.String, v *value, asserts []string) {
		bytes += entryBytes(Entry{Key: string(k), Value: v.bytes, Asserts: asserts})
		for _, a := range asserts {
			if c.revoked[a] {
				t.Fatalf("resident %q is predicated on revoked %q", k, a)
			}
		}
	})
	if bytes != c.entries.Bytes() {
		t.Fatalf("bytes counter %d, resident entries sum to %d", c.entries.Bytes(), bytes)
	}
	if bytes > c.budget {
		t.Fatalf("shard holds %d bytes over its %d budget", bytes, c.budget)
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
	if rows := c.entries.Indexed(); rows != 1 {
		t.Fatalf("%d index rows, want only a2's", rows)
	}
	if n := c.InvalidateAsserts([]string{"a2"}); n != 1 {
		t.Fatalf("invalidated %d entries under a2, want 1 (k2)", n)
	}
	checkCacheInvariants(t, c)
	if c.entries.Indexed() != 0 || c.Len() != 0 || c.Stats().Bytes != 0 {
		t.Fatalf("empty shard keeps %d index rows, %d entries, %d bytes", c.entries.Indexed(), c.Len(), c.Stats().Bytes)
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
	var evictions, failed int
	c.SetEvictHook(func(string) { evictions++ })
	// The check fails one value length in seven, so Gets also remove.
	check := func(v []byte) bool {
		if len(v)%7 == 0 {
			failed++
			return false
		}
		return true
	}
	for step := 0; step < 5000; step++ {
		switch r := rng.Intn(100); {
		case r < 50:
			c.Put(entry())
		case r < 75:
			c.Get(fmt.Sprintf("k%d", rng.Intn(60)), check)
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
	if st.Evicted == 0 || st.Invalidated == 0 || st.Puts == 0 || failed == 0 {
		t.Fatalf("vacuous mix: %+v, %d failed checks", st, failed)
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
	c.Get("k0", nil)
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

// TestCacheGetChecksOncePerEntry: a Get's check runs on the first hit of
// a stored entry and on no later hit, runs again once the entry was
// evicted and put again, and a value that fails it leaves the shard, so
// the next Put of its key lands instead of losing to first-write-wins.
func TestCacheGetChecksOncePerEntry(t *testing.T) {
	good, bad := []byte("{}"), []byte("{")
	c := NewCache(entryBytes(Entry{Key: "k0", Value: good}))
	calls := 0
	check := func(v []byte) bool {
		calls++
		return string(v) == "{}"
	}
	hitMany := func(key string, want int) {
		t.Helper()
		for i := 0; i < 100; i++ {
			if v, ok := c.Get(key, check); !ok || string(v) != "{}" {
				t.Fatalf("Get(%s) = %q,%v on hit %d", key, v, ok, i)
			}
		}
		if calls != want {
			t.Fatalf("check ran %d times, want %d", calls, want)
		}
	}
	c.Put(Entry{Key: "k0", Value: good})
	if _, ok := c.Get("k0", nil); !ok || calls != 0 {
		t.Fatalf("a Get without a check: hit %v, %d check calls", ok, calls)
	}
	hitMany("k0", 1)

	// The budget holds one entry: k1 evicts k0, and k0 put again evicts k1.
	c.Put(Entry{Key: "k1", Value: good})
	if c.Len() != 1 || c.Stats().Evicted != 1 {
		t.Fatalf("k1 did not evict k0: %+v", c.Stats())
	}
	c.Put(Entry{Key: "k0", Value: good})
	hitMany("k0", 2)

	c.Flush()
	c.Put(Entry{Key: "k2", Value: bad})
	if _, ok := c.Get("k2", check); ok || calls != 3 {
		t.Fatalf("a value failing its check: hit %v after %d check calls", ok, calls)
	}
	if c.Len() != 0 {
		t.Fatal("a value that failed its check stayed resident")
	}
	if !c.Put(Entry{Key: "k2", Value: good}) {
		t.Fatal("the put after a failed check did not land")
	}
	hitMany("k2", 4)
	checkCacheInvariants(t, c)

	// Many goroutines' first hits still run the check once: it runs
	// under the shard lock, which also orders the writes to calls.
	c.Put(Entry{Key: "k3", Value: good})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, ok := c.Get("k3", check); !ok {
					t.Error("a concurrent Get of a good value missed")
					return
				}
			}
		}()
	}
	wg.Wait()
	if calls != 5 {
		t.Fatalf("check ran %d times, want 5", calls)
	}
}
