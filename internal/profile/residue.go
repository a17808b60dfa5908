package profile

import (
	"scaf/internal/interp"
	"scaf/internal/ir"
)

// ResidueProfile records, for every pointer SSA value, the set of values
// its four least-significant bits took during profiling (paper §4.2.3,
// pointer-residue speculation after Johnson).
type ResidueProfile struct {
	interp.BaseObserver
	ptrs map[ir.Value]*residueStat
	// instrs caches each access instruction's pointer record for the run.
	instrs InstrTable[*residueStat]
}

// residueStat is one pointer value's residue mask and access count.
type residueStat struct {
	mask  uint16
	count int64
}

// NewResidueProfile creates an empty residue profiler.
func NewResidueProfile() *ResidueProfile {
	return &ResidueProfile{ptrs: map[ir.Value]*residueStat{}}
}

// release drops the state only the run needs.
func (p *ResidueProfile) release() { p.instrs = InstrTable[*residueStat]{} }

func (p *ResidueProfile) record(in *ir.Instr, addr uint64) {
	r := p.instrs.At(in)
	if *r == nil {
		ptr, _, ok := in.PointerOperand()
		if !ok {
			return
		}
		if p.ptrs[ptr] == nil {
			p.ptrs[ptr] = &residueStat{}
		}
		*r = p.ptrs[ptr]
	}
	st := *r
	st.mask |= 1 << (addr & 15)
	st.count++
}

// Events implements interp.Selective.
func (p *ResidueProfile) Events() interp.Event { return interp.LoadEvent | interp.StoreEvent }

func (p *ResidueProfile) Load(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	p.record(in, addr)
}

func (p *ResidueProfile) Store(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	p.record(in, addr)
}

// Mask returns the residue bitmask of pointer v (bit i set iff residue i
// was observed) and whether v was observed at all.
func (p *ResidueProfile) Mask(v ir.Value) (uint16, bool) {
	if st := p.ptrs[v]; st != nil {
		return st.mask, true
	}
	return 0, false
}

// ExecCount returns how many accesses were observed through v.
func (p *ResidueProfile) ExecCount(v ir.Value) int64 {
	if st := p.ptrs[v]; st != nil {
		return st.count
	}
	return 0
}

// expand widens a residue mask by an access of size bytes: an access at
// residue r touches residues r..r+size-1 (mod 16).
func expand(mask uint16, size int64) uint16 {
	if size >= 16 {
		return 0xffff
	}
	var out uint16
	for r := 0; r < 16; r++ {
		if mask&(1<<r) == 0 {
			continue
		}
		for i := int64(0); i < size; i++ {
			out |= 1 << ((r + int(i)) & 15)
		}
	}
	return out
}

// DisjointAccesses reports whether accesses of the given sizes through the
// two pointers can never overlap according to their observed residues.
func (p *ResidueProfile) DisjointAccesses(a ir.Value, sizeA int64, b ir.Value, sizeB int64) bool {
	ma, oka := p.Mask(a)
	mb, okb := p.Mask(b)
	if !oka || !okb {
		return false
	}
	return expand(ma, sizeA)&expand(mb, sizeB) == 0
}
