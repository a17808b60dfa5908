package core

import "sync"

// internedAssert is the canonical handle for one assertion identity. Both
// identity strings are computed once, when the assertion is first seen, and
// every later String()/key() call on an interned assertion is a pointer
// load. Two assertions interned by the same Interner are content-equal
// (full key, including cost and conflict points) exactly when they carry
// the same handle — the property assertEqual exploits and
// TestInternHandleEqualsStringEqual pins.
type internedAssert struct {
	key string // full-content identity (Assertion.key)
	// str is the wire identity (Assertion.String) — what /observe and
	// Revokers see. It is an array so that an answer resting on this
	// assertion alone can use str[:] as its key set (optionAssertKeys).
	str [1]string
}

// Interner deduplicates assertion identities for one analysis session. It
// is safe for concurrent use: a SharedCache owns one and every orchestrator
// attached to the cache interns through it, so handle equality spans worker
// goroutines. Orchestrators without a shared cache get a private interner —
// same speedup, orchestrator-local handle space.
//
// Interning never mutates its input: modules may return shared option
// slices, so Interner returns fresh copies with handles attached (or the
// input itself when everything already carries handles — the steady state
// once the session's assertion vocabulary has been seen once).
type Interner struct {
	mu sync.Mutex
	m  map[string]*internedAssert
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{m: map[string]*internedAssert{}}
}

// Len reports the number of distinct assertion identities interned so far.
func (it *Interner) Len() int {
	it.mu.Lock()
	defer it.mu.Unlock()
	return len(it.m)
}

// assert returns a copy of a carrying its canonical handle. Already-interned
// assertions pass through untouched. The key is written into a stack
// buffer before the lock is taken and looked up without converting it to
// a string, so an assertion seen before costs no allocation.
func (it *Interner) assert(a Assertion) Assertion {
	if a.intern != nil {
		return a
	}
	var scratch [256]byte
	k := a.appendKey(scratch[:0])
	it.mu.Lock()
	h, ok := it.m[string(k)]
	if !ok {
		h = &internedAssert{key: string(k), str: [1]string{a.computeString()}}
		it.m[h.key] = h
	}
	it.mu.Unlock()
	a.intern = h
	return a
}

// options returns opts with every assertion carrying a handle. The
// assertion-free and fully-interned cases — every cache hit and every
// NoDep answer — return the input slice unchanged without allocating.
func (it *Interner) options(opts []Option) []Option {
	dirty := false
scan:
	for _, o := range opts {
		for i := range o.Asserts {
			if o.Asserts[i].intern == nil {
				dirty = true
				break scan
			}
		}
	}
	if !dirty {
		return opts
	}
	out := make([]Option, len(opts))
	for i, o := range opts {
		if len(o.Asserts) == 0 {
			out[i] = o
			continue
		}
		as := make([]Assertion, len(o.Asserts))
		for j := range o.Asserts {
			as[j] = it.assert(o.Asserts[j])
		}
		out[i] = Option{Asserts: as}
	}
	return out
}

// InternOptions exposes options for clients (benchmark suites, tests) that
// pre-intern option sets they hold on to.
func (it *Interner) InternOptions(opts []Option) []Option { return it.options(opts) }

// assertEqual reports full-content identity. Matching handles decide
// immediately; otherwise (un-interned, or interned by different interners)
// it falls back to the key strings, which are O(1) for interned assertions.
func assertEqual(a, b *Assertion) bool {
	if a.intern != nil && a.intern == b.intern {
		return true
	}
	return a.key() == b.key()
}
