// Package interp executes IR modules under a deterministic, object-granular
// memory model. It is the substrate the profilers observe: offline "train
// runs" of the benchmark programs happen here, standing in for the paper's
// native profiling runs on SPEC.
package interp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"scaf/internal/ir"
)

// Object is one allocated memory region. Every allocation — global, stack
// (alloca), or heap (malloc) — produces a fresh Object with a unique,
// never-reused address range, so profilers can attribute every access to
// an allocation site and dynamic instance unambiguously.
type Object struct {
	ID    int
	Base  uint64
	Size  int64
	Data  []byte
	Site  *ir.Instr  // allocation site; nil for globals
	G     *ir.Global // non-nil for globals
	Freed bool
}

// SiteName names the allocation site for diagnostics.
func (o *Object) SiteName() string {
	if o.G != nil {
		return "@" + o.G.GName
	}
	if o.Site != nil {
		return fmt.Sprintf("%s:%s", o.Site.Blk.Fn.Name, o.Site)
	}
	return "?"
}

// Memory is a bump-allocated address space. Addresses start high and are
// 16-byte aligned so that pointer residues behave like a real allocator's.
type Memory struct {
	objects []*Object // sorted by Base; addresses never reused
	next    uint64
	nextID  int
	// last is the object the last Load or Store hit, checked before the
	// binary search: consecutive accesses mostly touch one object.
	last *Object
}

// NewMemory creates an empty address space.
func NewMemory() *Memory { return &Memory{next: 0x10000} }

// Allocate creates a new object of size bytes (zero-filled).
func (m *Memory) Allocate(size int64, site *ir.Instr, g *ir.Global) *Object {
	if size < 0 {
		size = 0
	}
	o := &Object{
		ID:   m.nextID,
		Base: m.next,
		Size: size,
		Data: make([]byte, size),
		Site: site,
		G:    g,
	}
	m.nextID++
	m.next += (uint64(size) + 15) &^ 15
	if size == 0 {
		m.next += 16
	}
	m.objects = append(m.objects, o)
	return o
}

// Free marks the object containing addr freed and reclaims its storage.
func (m *Memory) Free(addr uint64) (*Object, error) {
	o := m.FindObject(addr)
	if o == nil {
		return nil, fmt.Errorf("free of unmapped address %#x", addr)
	}
	if o.Freed {
		return nil, fmt.Errorf("double free of object %d (%s)", o.ID, o.SiteName())
	}
	if addr != o.Base {
		return nil, fmt.Errorf("free of interior pointer %#x into object %d", addr, o.ID)
	}
	o.Freed = true
	o.Data = nil
	return o, nil
}

// FindObject locates the object whose range contains addr (freed or live),
// or nil.
func (m *Memory) FindObject(addr uint64) *Object {
	i := sort.Search(len(m.objects), func(i int) bool {
		return m.objects[i].Base > addr
	})
	if i == 0 {
		return nil
	}
	o := m.objects[i-1]
	if addr >= o.Base && addr < o.Base+uint64(max64(o.Size, 1)) {
		return o
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Load reads size bytes at addr as a little-endian word.
func (m *Memory) Load(addr uint64, size int64) (uint64, *Object, error) {
	o, off, err := m.locateCached(addr, size, "load")
	if err != nil {
		return 0, nil, err
	}
	return getWord(o.Data[off:], size), o, nil
}

// Store writes size bytes at addr as a little-endian word.
func (m *Memory) Store(addr uint64, size int64, val uint64) (*Object, error) {
	o, off, err := m.locateCached(addr, size, "store")
	if err != nil {
		return nil, err
	}
	putWord(o.Data[off:], size, val)
	return o, nil
}

// getWord reads the little-endian word in the first size bytes of b.
func getWord(b []byte, size int64) uint64 {
	if size == 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var v uint64
	for i := int64(0); i < size; i++ {
		v |= uint64(b[i]) << (8 * uint(i))
	}
	return v
}

// putWord writes val into the first size bytes of b, little-endian.
func putWord(b []byte, size int64, val uint64) {
	if size == 8 {
		binary.LittleEndian.PutUint64(b, val)
		return
	}
	for i := int64(0); i < size; i++ {
		b[i] = byte(val >> (8 * uint(i)))
	}
}

// locateCached is locate with the last object hit checked first. Only
// Memory's own Load and Store use it: a View reads its base image from
// concurrent forks, so it goes through the uncached locate, which writes
// nothing.
func (m *Memory) locateCached(addr uint64, size int64, what string) (*Object, int64, error) {
	if o := m.last; o != nil && o.holds(addr, size) {
		return o, int64(addr - o.Base), nil
	}
	o, off, err := m.locate(addr, size, what)
	if err == nil {
		m.last = o
	}
	return o, off, err
}

// holds reports whether o is live and the size bytes at addr lie in it
// (size > 0: a zero-byte access goes through locate).
func (o *Object) holds(addr uint64, size int64) bool {
	return !o.Freed && size > 0 && addr >= o.Base && size <= o.Size && addr-o.Base <= uint64(o.Size-size)
}

func (m *Memory) locate(addr uint64, size int64, what string) (*Object, int64, error) {
	if addr == 0 {
		return nil, 0, fmt.Errorf("%s through null pointer", what)
	}
	o := m.FindObject(addr)
	if o == nil {
		return nil, 0, fmt.Errorf("%s at unmapped address %#x", what, addr)
	}
	if o.Freed {
		return nil, 0, fmt.Errorf("%s of freed object %d (%s)", what, o.ID, o.SiteName())
	}
	off := int64(addr - o.Base)
	if off+size > o.Size {
		return nil, 0, fmt.Errorf("%s of %d bytes at offset %d overruns object %d (%s, %d bytes)",
			what, size, off, o.ID, o.SiteName(), o.Size)
	}
	return o, off, nil
}

// Objects returns all objects ever allocated (including freed ones).
func (m *Memory) Objects() []*Object { return m.objects }

// Digest summarizes the full memory image — object identities, sizes,
// liveness, and live bytes — so two runs can be compared for byte
// equality without materializing a copy.
func (m *Memory) Digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * uint(i)))
		}
		h.Write(buf[:])
	}
	for _, o := range m.objects {
		word(uint64(o.ID))
		word(o.Base)
		word(uint64(o.Size))
		if o.Freed {
			word(1)
		} else {
			word(0)
			h.Write(o.Data)
		}
	}
	return h.Sum64()
}
