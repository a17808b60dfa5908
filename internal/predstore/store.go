// Package predstore holds predicated entries: values that rest on
// speculative assertions, indexed so that withdrawing an assertion
// removes exactly the entries that rest on it. core.SharedCache keeps one
// store per shard of each query kind, and fleet.Cache keeps one per
// instance shard; each owner adds its own lock.
package predstore

import "hash/maphash"

// Key is what a store is keyed by. Equal keys must hash alike; unequal
// keys may collide, which costs a longer chain and never a wrong entry.
type Key interface {
	comparable
	Hash() uint64
}

// String is a string key.
type String string

var seed = maphash.MakeSeed()

// Hash hashes s with a seed made once per process.
func (s String) Hash() uint64 { return maphash.String(seed, string(s)) }

// Revoker reports withdrawn assertions by their keys. A nil Revoker
// withdraws nothing.
type Revoker interface {
	RevokedAssert(key string) bool
}

// Outcome is what a Put did.
type Outcome int

const (
	// Inserted: the entry is resident.
	Inserted Outcome = iota
	// Resident: an entry that rests on no revoked assertion already
	// holds the key, and it stays.
	Resident
	// Revoked: the entry rests on a revoked assertion and was refused.
	Revoked
	// TooLarge: the entry is larger than the whole budget and was
	// refused without displacing anything.
	TooLarge
)

// Store maps keys to entries, each entry a value plus the keys of the
// assertions it rests on. Entries live by value in one slot slice with a
// free list, so the collector scans the slots' fields and no per-entry
// object. A key lives only in its slot: the hash index maps a key's hash
// to the first of a chain of slots whose keys share it, and the assertion
// rows hold slot numbers. Eviction, invalidation, replacement and Remove
// take an entry out through one removal path, which unlinks it from its
// chain and drops its row under each of its assertions, so a row never
// names an entry that is gone; Flush drops everything at once.
//
// A Store has no lock: its owner serializes every call. The zero value
// is an empty, unbounded store, and it allocates nothing until its first
// Put.
type Store[K Key, V any] struct {
	heads map[uint64]int32   // key hash -> first slot of its chain
	slots []slot[K, V]       // resident entries and free slots
	free  []int32            // free slots, reused last freed first
	rows  map[string][]int32 // assertion key -> slots resting on it

	budget, bytes int64
	hand          int
	evicted       func(K)
}

type slot[K Key, V any] struct {
	key     K
	val     V
	asserts []string
	size    int64 // accounted bytes; 0 marks a free slot
	next    int32 // next slot of the key's hash chain; -1 ends it
	ref     bool  // CLOCK reference bit: set by a hit, cleared by the hand
}

// SetBudget bounds the store to budget accounted bytes (0 or less:
// unbounded) and names the function told the key of each entry the
// budget evicts or refuses as larger than itself (nil: none). Past the
// budget, Put evicts by CLOCK: the hand sweeps the slots, clearing the
// reference bits that hits set, and evicts the first entry whose bit is
// clear. Call it before the first Put.
func (s *Store[K, V]) SetBudget(budget int64, evicted func(K)) {
	s.budget, s.evicted = budget, evicted
}

func anyRevoked(rev Revoker, asserts []string) bool {
	if rev == nil {
		return false
	}
	for _, a := range asserts {
		if rev.RevokedAssert(a) {
			return true
		}
	}
	return false
}

// find returns the slot holding k, whose hash is h.
func (s *Store[K, V]) find(k K, h uint64) (int32, bool) {
	i, ok := s.heads[h]
	for ok {
		if s.slots[i].key == k {
			return i, true
		}
		i = s.slots[i].next
		ok = i >= 0
	}
	return -1, false
}

// Get returns k's value and the assertions it rests on, and marks the
// entry referenced. An entry resting on an assertion rev reports is a
// miss; it stays until a Put replaces it or Invalidate removes it. The
// owner may update the value through the pointer until its next call
// that adds or removes an entry.
func (s *Store[K, V]) Get(k K, rev Revoker) (*V, []string, bool) {
	i, ok := s.find(k, k.Hash())
	if !ok {
		return nil, nil, false
	}
	sl := &s.slots[i]
	if anyRevoked(rev, sl.asserts) {
		return nil, nil, false
	}
	sl.ref = true
	return &sl.val, sl.asserts, true
}

// Put stores v under k, resting on asserts and counting size (at least
// 1) against the budget. It refuses an entry resting on an assertion rev
// reports, and an entry larger than the whole budget. The first entry of
// a key wins, so a later Put of a resident key changes nothing, unless
// the resident entry rests on a revoked assertion: such an entry no
// longer answers and must not hold its key, so Put replaces it. To make
// room, Put evicts by CLOCK.
func (s *Store[K, V]) Put(k K, v V, asserts []string, size int64, rev Revoker) Outcome {
	if anyRevoked(rev, asserts) {
		return Revoked
	}
	h := k.Hash()
	old, exists := s.find(k, h)
	if exists && !anyRevoked(rev, s.slots[old].asserts) {
		return Resident
	}
	if s.budget > 0 && size > s.budget {
		if s.evicted != nil {
			s.evicted(k)
		}
		return TooLarge
	}
	if exists {
		s.remove(old)
	}
	for s.budget > 0 && s.bytes+size > s.budget {
		s.evict()
	}
	var i int32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = int32(len(s.slots))
		s.slots = append(s.slots, slot[K, V]{})
	}
	next, chained := s.heads[h]
	if !chained {
		next = -1
	}
	s.slots[i] = slot[K, V]{key: k, val: v, asserts: asserts, size: size, next: next}
	if s.heads == nil {
		s.heads = make(map[uint64]int32)
	}
	s.heads[h] = i
	if len(asserts) > 0 && s.rows == nil {
		s.rows = make(map[string][]int32)
	}
	for _, a := range asserts {
		s.rows[a] = append(s.rows[a], i)
	}
	s.bytes += size
	return Inserted
}

// evict advances the CLOCK hand to the next resident entry whose
// reference bit is clear, clearing the set bits it passes, and evicts
// that entry. The store must hold at least one entry.
func (s *Store[K, V]) evict() {
	for {
		if s.hand >= len(s.slots) {
			s.hand = 0
		}
		i := s.hand
		s.hand++
		sl := &s.slots[i]
		if sl.size == 0 {
			continue
		}
		if sl.ref {
			sl.ref = false
			continue
		}
		k := sl.key
		s.remove(int32(i))
		if s.evicted != nil {
			s.evicted(k)
		}
		return
	}
}

// remove is the one way an entry leaves the store: it drops the entry's
// row under every assertion it rests on, unlinks it from its hash chain
// and frees its slot.
func (s *Store[K, V]) remove(i int32) {
	sl := &s.slots[i]
	for _, a := range sl.asserts {
		row := s.rows[a]
		// Rows grow at the end, and Invalidate removes a row's entries
		// last first, so search from the end.
		for j := len(row) - 1; j >= 0; j-- {
			if row[j] == i {
				row[j] = row[len(row)-1]
				row = row[:len(row)-1]
				break
			}
		}
		if len(row) == 0 {
			delete(s.rows, a)
		} else {
			s.rows[a] = row
		}
	}
	h := sl.key.Hash()
	if j := s.heads[h]; j == i {
		if sl.next < 0 {
			delete(s.heads, h)
		} else {
			s.heads[h] = sl.next
		}
	} else {
		for s.slots[j].next != i {
			j = s.slots[j].next
		}
		s.slots[j].next = sl.next
	}
	s.bytes -= sl.size
	*sl = slot[K, V]{}
	s.free = append(s.free, i)
}

// Remove removes k's entry, if any, and reports whether there was one.
func (s *Store[K, V]) Remove(k K) bool {
	i, ok := s.find(k, k.Hash())
	if ok {
		s.remove(i)
	}
	return ok
}

// Invalidate removes every entry resting on any of asserts and appends
// the removed entries' keys to dst.
func (s *Store[K, V]) Invalidate(asserts []string, dst []K) []K {
	for _, a := range asserts {
		for row := s.rows[a]; len(row) > 0; row = s.rows[a] {
			i := row[len(row)-1]
			dst = append(dst, s.slots[i].key)
			s.remove(i)
		}
	}
	return dst
}

// Flush removes every entry and returns how many there were. The budget
// and the evicted function stay.
func (s *Store[K, V]) Flush() int {
	n := s.Len()
	*s = Store[K, V]{budget: s.budget, evicted: s.evicted}
	return n
}

// Each calls fn with every resident entry, in slot order. fn must not add
// or remove entries.
func (s *Store[K, V]) Each(fn func(k K, v *V, asserts []string)) {
	for i := range s.slots {
		if sl := &s.slots[i]; sl.size > 0 {
			fn(sl.key, &sl.val, sl.asserts)
		}
	}
}

// Len returns the number of resident entries.
func (s *Store[K, V]) Len() int { return len(s.slots) - len(s.free) }

// Bytes returns the accounted bytes of the resident entries.
func (s *Store[K, V]) Bytes() int64 { return s.bytes }

// Indexed returns the number of assertions some resident entry rests on,
// one row each.
func (s *Store[K, V]) Indexed() int { return len(s.rows) }
