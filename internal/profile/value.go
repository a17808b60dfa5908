package profile

import (
	"scaf/internal/interp"
	"scaf/internal/ir"
)

// ValueProfile detects predictable loads: loads that returned the same
// value on every dynamic execution during profiling (paper §4.2.2, the
// value-prediction profiler of Gabbay & Mendelson).
type ValueProfile struct {
	interp.BaseObserver
	stats map[*ir.Instr]*valueStat
	// instrs caches each load's record for the run.
	instrs InstrTable[*valueStat]
}

type valueStat struct {
	count     int64
	value     uint64
	invariant bool
}

// NewValueProfile creates an empty value profiler.
func NewValueProfile() *ValueProfile {
	return &ValueProfile{stats: map[*ir.Instr]*valueStat{}}
}

// release drops the state only the run needs.
func (p *ValueProfile) release() { p.instrs = InstrTable[*valueStat]{} }

// Events implements interp.Selective.
func (p *ValueProfile) Events() interp.Event { return interp.LoadEvent }

func (p *ValueProfile) Load(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	r := p.instrs.At(in)
	s := *r
	if s == nil {
		*r = &valueStat{count: 1, value: val, invariant: true}
		p.stats[in] = *r
		return
	}
	s.count++
	if s.value != val {
		s.invariant = false
	}
}

// Predictable reports whether load in returned one single value during
// profiling, and that value. Loads never executed are not predictable.
func (p *ValueProfile) Predictable(in *ir.Instr) (uint64, bool) {
	s := p.stats[in]
	if s == nil || !s.invariant {
		return 0, false
	}
	return s.value, true
}

// ExecCount returns how many times load in executed during profiling.
func (p *ValueProfile) ExecCount(in *ir.Instr) int64 {
	if s := p.stats[in]; s != nil {
		return s.count
	}
	return 0
}
