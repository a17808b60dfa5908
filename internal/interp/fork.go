package interp

import (
	"fmt"
	"slices"
	"sort"

	"scaf/internal/ir"
)

// MemOps is the memory interface the execution engine routes every load
// and store through. *Memory implements it directly; View overlays a
// write journal on a shared base image so speculative execution never
// mutates the parent's memory until commit. Allocation stays on the
// concrete *Memory (Interp.heap) and is refused inside forks.
type MemOps interface {
	Load(addr uint64, size int64) (uint64, *Object, error)
	Store(addr uint64, size int64, val uint64) (*Object, error)
}

// instrAware is implemented by MemOps backends that attribute accesses to
// the instruction performing them (View's conflict journal). The engine
// announces the current memory instruction just before each Load/Store.
type instrAware interface{ SetInstr(*ir.Instr) }

// Frame exposes one function activation to hooks and region execution:
// the live register file, the activation's arguments, and its position in
// the call stack. Regs aliases the activation's register slice, so writes
// through a Frame are visible to the continuing execution. The Frame the
// interpreter passes out, with its Regs and Args, belongs to the
// activation buffer of its call depth and is valid only until its
// activation returns: the next call at that depth reuses all three. Copy
// what must outlive it.
type Frame struct {
	It    *Interp
	Fn    *ir.Func
	Regs  []uint64
	Args  []uint64
	Depth int
}

// Hook observes every control transfer of top-level (non-region)
// execution just before the destination block's phis evaluate. Returning
// a non-nil next block takes over: execution resumes there, with nextPrev
// as the phi predecessor. Returning (nil, nil, nil) declines. Hooks never
// fire inside RunRegion or forked interpreters, so a hook that executes a
// loop region itself cannot re-trigger on its own fallback execution.
// The Frame a hook receives is valid only until its activation returns
// (see Frame), so a hook must not keep it past the call.
type Hook func(fr *Frame, block, prev *ir.Block) (next, nextPrev *ir.Block, err error)

// RegionEnd reports where a bounded execution stopped: either the
// function returned (Returned, RetVal) or a control transfer From→To
// satisfied the stop predicate before being taken (phis of To have NOT
// been evaluated).
type RegionEnd struct {
	Returned bool
	RetVal   uint64
	From, To *ir.Block

	stop func(from, to *ir.Block) bool
}

// RunRegion executes fr's function from block start (with phi predecessor
// prev) until a control transfer satisfies stop or the function returns.
// The stop predicate is consulted exactly once per transfer, so stateful
// predicates (iteration counters) are safe. Hooks do not fire. Stack
// allocations performed inside the region stay live when the region ends;
// callers speculating over loops must refuse allocating regions. fr may
// be the Frame a hook received, or one the caller built: then its Regs
// must hold one register per instruction ID of fr.Fn, and the region's
// writes land in them when it ends.
func (it *Interp) RunRegion(fr *Frame, start, prev *ir.Block, stop func(from, to *ir.Block) bool) (*RegionEnd, error) {
	end := &RegionEnd{stop: stop}
	var c *code
	var slots []uint64
	own := fr.Depth >= 0 && fr.Depth < len(it.acts) && it.acts[fr.Depth] != nil && fr == &it.acts[fr.Depth].fr
	if own {
		a := it.acts[fr.Depth]
		c, slots = a.code, a.slots
	} else {
		c = it.code(fr.Fn, funcIndex(it.mod, fr.Fn), len(fr.Args))
		if len(fr.Regs) != int(c.nregs) {
			return end, fmt.Errorf("%s: frame has %d registers, want %d", fr.Fn.Name, len(fr.Regs), c.nregs)
		}
		slots = load(c, nil, fr.Args)
		copy(slots, fr.Regs)
		defer copy(fr.Regs, slots)
	}
	bi := c.blockIndex(start)
	if bi < 0 {
		return end, fmt.Errorf("%s: region starts at block %s of another function", fr.Fn.Name, start)
	}
	var stackObjs []*Object
	_, err := it.exec(fr, c, slots, bi, prev, -1, &stackObjs, end, false)
	return end, err
}

// Fork clones the interpreter for speculative execution against mem:
// observers and hooks are stripped, output and step counts start empty,
// and heap operations (alloca/malloc/free) are refused — a region that
// allocates aborts with an error instead of perturbing the parent's
// address space. The globals map and the decoded functions are shared
// read-only; a function the fork decodes stays the fork's.
func (it *Interp) Fork(mem MemOps) *Interp {
	f := &Interp{mod: it.mod, mem: mem, opts: it.opts, globals: it.globals, fns: slices.Clone(it.fns)}
	f.opts.Observers = nil
	f.opts.Hook = nil
	f.memIA, _ = mem.(instrAware)
	return f
}

// Eval resolves operand v against a frame's registers and arguments.
func (it *Interp) Eval(v ir.Value, fr *Frame) (uint64, error) {
	switch x := v.(type) {
	case *ir.Param:
		if x.Idx < 0 || x.Idx >= len(fr.Args) {
			return 0, fmt.Errorf("parameter index %d out of range (%d args)", x.Idx, len(fr.Args))
		}
		return fr.Args[x.Idx], nil
	case *ir.Instr:
		if x.ID < 0 || x.ID >= len(fr.Regs) {
			return 0, fmt.Errorf("instruction id %d out of range (%d registers)", x.ID, len(fr.Regs))
		}
		return fr.Regs[x.ID], nil
	}
	return it.constant(v)
}

// Heap returns the concrete memory backing allocation, or nil in a fork.
func (it *Interp) Heap() *Memory { return it.heap }

// Output returns the lines printed so far.
func (it *Interp) Output() []string { return it.output }

// AppendOutput splices lines (a committed fork's output) into the stream.
func (it *Interp) AppendOutput(lines []string) { it.output = append(it.output, lines...) }

// Steps returns the dynamic instruction count so far.
func (it *Interp) Steps() int64 { return it.steps }

// AddSteps charges a committed fork's work to this interpreter.
func (it *Interp) AddSteps(n int64) { it.steps += n }

// View is a journaled fork of a Memory. Loads read through to the base
// image except where the view itself has written; every store lands in a
// byte-granular journal with the writing instruction recorded, and every
// read of a byte the view has not yet written (an "exposed" read — the
// value came from the pre-region snapshot) records the first reading
// instruction. Those two journals are exactly what commit-time validation
// needs: a later chunk's exposed read or write overlapping an earlier
// chunk's write is a cross-iteration dependence the speculation denied.
type View struct {
	base   *Memory
	cur    *ir.Instr
	writes map[uint64]byte
	writer map[uint64]*ir.Instr
	reads  map[uint64]*ir.Instr
}

// NewView creates an empty journal over base. The base must stay
// quiescent while views over it execute; it is only mutated again at
// commit time, after every view has stopped.
func NewView(base *Memory) *View {
	return &View{
		base:   base,
		writes: map[uint64]byte{},
		writer: map[uint64]*ir.Instr{},
		reads:  map[uint64]*ir.Instr{},
	}
}

// SetInstr implements instrAware.
func (v *View) SetInstr(in *ir.Instr) { v.cur = in }

// Load implements MemOps, reading journal bytes where present and the
// base image elsewhere, recording exposed reads.
func (v *View) Load(addr uint64, size int64) (uint64, *Object, error) {
	o, off, err := v.base.locate(addr, size, "load")
	if err != nil {
		return 0, nil, err
	}
	var val uint64
	for i := int64(0); i < size; i++ {
		a := addr + uint64(i)
		b, written := v.writes[a]
		if !written {
			b = o.Data[off+i]
			if _, seen := v.reads[a]; !seen {
				v.reads[a] = v.cur
			}
		}
		val |= uint64(b) << (8 * uint(i))
	}
	return val, o, nil
}

// Store implements MemOps, journaling the bytes without touching base.
func (v *View) Store(addr uint64, size int64, val uint64) (*Object, error) {
	o, _, err := v.base.locate(addr, size, "store")
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < size; i++ {
		a := addr + uint64(i)
		v.writes[a] = byte(val >> (8 * uint(i)))
		v.writer[a] = v.cur
	}
	return o, nil
}

// Writes exposes the write journal (addr → writing instruction).
func (v *View) Writes() map[uint64]*ir.Instr { return v.writer }

// ExposedReads exposes the journal of reads served by the base image
// (addr → first reading instruction).
func (v *View) ExposedReads() map[uint64]*ir.Instr { return v.reads }

// CommitTo applies the journal to m in ascending address order. It must
// only be called after validation: once applied the writes are published.
func (v *View) CommitTo(m *Memory) error {
	addrs := make([]uint64, 0, len(v.writes))
	for a := range v.writes {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		if _, err := m.Store(a, 1, uint64(v.writes[a])); err != nil {
			return err
		}
	}
	return nil
}
