package interp

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestMemoryRoundtrip(t *testing.T) {
	m := NewMemory()
	o := m.Allocate(64, nil, nil)
	f := func(off uint8, val uint64) bool {
		offset := uint64(off % 56)
		if _, err := m.Store(o.Base+offset, 8, val); err != nil {
			return false
		}
		got, _, err := m.Load(o.Base+offset, 8)
		return err == nil && got == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryPartialOverrun(t *testing.T) {
	m := NewMemory()
	o := m.Allocate(12, nil, nil) // deliberately not 8-aligned size
	if _, err := m.Store(o.Base+8, 8, 1); err == nil || !strings.Contains(err.Error(), "overruns") {
		t.Errorf("expected overrun error, got %v", err)
	}
	if _, _, err := m.Load(o.Base+8, 8); err == nil || !strings.Contains(err.Error(), "overruns") {
		t.Errorf("expected overrun error, got %v", err)
	}
	if _, err := m.Store(o.Base+4, 8, 1); err != nil {
		t.Errorf("in-bounds store failed: %v", err)
	}
}

func TestMemoryFindObject(t *testing.T) {
	m := NewMemory()
	var objs []*Object
	for i := 0; i < 10; i++ {
		objs = append(objs, m.Allocate(int64(8+i*8), nil, nil))
	}
	for _, o := range objs {
		if m.FindObject(o.Base) != o {
			t.Errorf("FindObject(base) failed for %d", o.ID)
		}
		if m.FindObject(o.Base+uint64(o.Size)-1) != o {
			t.Errorf("FindObject(last byte) failed for %d", o.ID)
		}
	}
	if m.FindObject(0x100) != nil {
		t.Error("FindObject below heap should be nil")
	}
	if m.FindObject(m.next+1024) != nil {
		t.Error("FindObject above heap should be nil")
	}
}

func TestMemoryLittleEndian(t *testing.T) {
	m := NewMemory()
	o := m.Allocate(8, nil, nil)
	if _, err := m.Store(o.Base, 8, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	if o.Data[0] != 0x08 || o.Data[7] != 0x01 {
		t.Errorf("not little-endian: % x", o.Data)
	}
}

func TestZeroSizeAllocationsDistinct(t *testing.T) {
	m := NewMemory()
	a := m.Allocate(0, nil, nil)
	b := m.Allocate(0, nil, nil)
	if a.Base == b.Base {
		t.Error("zero-size objects must have distinct addresses")
	}
}

func TestFreedObjectLookup(t *testing.T) {
	m := NewMemory()
	o := m.Allocate(16, nil, nil)
	if _, err := m.Free(o.Base); err != nil {
		t.Fatal(err)
	}
	// Still findable (for diagnostics) but unusable.
	if m.FindObject(o.Base) != o {
		t.Error("freed object should still be locatable")
	}
	if _, _, err := m.Load(o.Base, 8); err == nil {
		t.Error("load of freed object should fail")
	}
	if _, err := m.Free(o.Base + 32); err == nil {
		t.Error("free of unmapped address should fail")
	}
}
