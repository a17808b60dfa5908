package fleet

import (
	"fmt"
	"reflect"
	"testing"
)

func TestRingDeterministicAndBalanced(t *testing.T) {
	a := NewRing([]string{"b2", "b0", "b1"}, 0)
	b := NewRing([]string{"b0", "b1", "b2"}, 0)
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key-%d", i)
		oa, ob := a.Owner(k), b.Owner(k)
		if oa != ob {
			t.Fatalf("placement depends on node order: %q vs %q for %s", oa, ob, k)
		}
		counts[oa]++
	}
	for n, c := range counts {
		// With 64 vnodes per node the split should be within a loose
		// factor of uniform (1000 each).
		if c < 500 || c > 1700 {
			t.Errorf("node %s owns %d/3000 keys — ring badly unbalanced", n, c)
		}
	}
}

func TestCacheFirstWriteWinsAndInvalidation(t *testing.T) {
	c := NewCache(0)
	if !c.Put(Entry{Key: "k1", Value: []byte("v1"), Asserts: []string{"a1"}}) {
		t.Fatal("first put rejected")
	}
	if c.Put(Entry{Key: "k1", Value: []byte("OTHER")}) {
		t.Fatal("duplicate key overwrote a canonical entry")
	}
	if v, ok := c.Get("k1", nil); !ok || string(v) != "v1" {
		t.Fatalf("Get(k1) = %q,%v want v1", v, ok)
	}
	c.Put(Entry{Key: "k2", Value: []byte("v2"), Asserts: []string{"a1", "a2"}})
	c.Put(Entry{Key: "k3", Value: []byte("v3")})

	if n := c.InvalidateAsserts([]string{"a1"}); n != 2 {
		t.Fatalf("invalidated %d entries, want 2 (k1, k2)", n)
	}
	if _, ok := c.Get("k1", nil); ok {
		t.Fatal("k1 survived invalidation of its predicate")
	}
	if _, ok := c.Get("k3", nil); !ok {
		t.Fatal("unpredicated k3 was dropped by invalidation")
	}
	// Monotone: a new entry predicated on a revoked assert never lands.
	if c.Put(Entry{Key: "k4", Value: []byte("v4"), Asserts: []string{"a1"}}) {
		t.Fatal("entry predicated on revoked assert was inserted")
	}
	if !c.AnyRevoked([]string{"zzz", "a1"}) {
		t.Fatal("AnyRevoked missed a revoked key")
	}
	if got := c.RevokedKeys(); !reflect.DeepEqual(got, []string{"a1"}) {
		t.Fatalf("RevokedKeys = %v, want [a1]", got)
	}
	c.Flush()
	if c.Len() != 0 {
		t.Fatal("Flush left entries behind")
	}
	if !c.AnyRevoked([]string{"a1"}) {
		t.Fatal("Flush forgot revocations — it must only drop entries")
	}
}

// TestTierReadsOnlyItsShard: Get and Put touch the tier's own shard
// only. A key another shard holds is a miss, each key the tier put is a
// hit, and the tier's hits and misses are its shard's.
func TestTierReadsOnlyItsShard(t *testing.T) {
	other := NewCache(0)
	tier := NewTier(TierConfig{Self: "a"})

	const n = 32
	for i := 0; i < n; i++ {
		other.Put(Entry{Key: fmt.Sprintf("%d|held-elsewhere", i), Value: []byte("theirs")})
	}
	for i := 0; i < n; i++ {
		if v, ok := tier.Get(fmt.Sprintf("%d|held-elsewhere", i), nil); ok {
			t.Fatalf("served %q, which only another shard holds", v)
		}
		tier.Put(fmt.Sprintf("%d|own", i), nil, []byte("mine"))
		if v, ok := tier.Get(fmt.Sprintf("%d|own", i), nil); !ok || string(v) != "mine" {
			t.Fatalf("%d|own: %q,%v", i, v, ok)
		}
	}
	if other.Len() != n || tier.Local().Len() != n {
		t.Fatalf("shards hold %d and %d entries, want %d each", other.Len(), tier.Local().Len(), n)
	}
	s := tier.Stats()
	if s.LocalHits != n || s.Misses != n || s.RemoteHits != 0 {
		t.Fatalf("stats = %+v, want %d local hits and %d misses", s, n, n)
	}
	if s.LocalHits != s.Local.Hits || s.Misses != s.Local.Misses {
		t.Fatalf("tier counts %d hits and %d misses, its shard %d and %d", s.LocalHits, s.Misses, s.Local.Hits, s.Local.Misses)
	}
}
