package interp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"scaf/internal/ir"
)

// Observer receives execution events. Profilers implement this interface.
// The zero-cost way to observe a subset of events is to embed BaseObserver.
type Observer interface {
	// Edge fires on every control transfer between blocks of one function.
	Edge(fn *ir.Func, from, to *ir.Block)
	// Load fires after a successful load. val holds the raw 8-byte word.
	Load(in *ir.Instr, addr uint64, size int64, val uint64, obj *Object)
	// Store fires after a successful store.
	Store(in *ir.Instr, addr uint64, size int64, val uint64, obj *Object)
	// Alloc fires when an object is created (globals, allocas, mallocs).
	Alloc(obj *Object)
	// Free fires when an object dies; in is nil for stack deallocation at
	// function return.
	Free(in *ir.Instr, obj *Object)
	// Call fires before entering a defined callee.
	Call(site *ir.Instr, callee *ir.Func)
	// Return fires when a defined callee returns.
	Return(callee *ir.Func)
}

// Event is a set of observer events, one bit per Observer method.
type Event uint8

const (
	EdgeEvent Event = 1 << iota
	LoadEvent
	StoreEvent
	AllocEvent
	FreeEvent
	CallEvent
	ReturnEvent

	AllEvents = EdgeEvent | LoadEvent | StoreEvent | AllocEvent | FreeEvent | CallEvent | ReturnEvent
)

// Selective is implemented by an Observer that handles only some events,
// leaving the rest to BaseObserver's no-ops. A run sends it only the
// events Events names, once, at the start of the run; an Observer
// without it receives every event.
type Selective interface {
	Events() Event
}

// BaseObserver is a no-op Observer for embedding.
type BaseObserver struct{}

func (BaseObserver) Edge(*ir.Func, *ir.Block, *ir.Block)             {}
func (BaseObserver) Load(*ir.Instr, uint64, int64, uint64, *Object)  {}
func (BaseObserver) Store(*ir.Instr, uint64, int64, uint64, *Object) {}
func (BaseObserver) Alloc(*Object)                                   {}
func (BaseObserver) Free(*ir.Instr, *Object)                         {}
func (BaseObserver) Call(*ir.Instr, *ir.Func)                        {}
func (BaseObserver) Return(*ir.Func)                                 {}

// Options configures a run.
type Options struct {
	MaxSteps  int64 // dynamic instruction budget; 0 means 200M
	MaxDepth  int   // call-stack depth limit; 0 means 10000
	Observers []Observer
	// Hook, when set, observes every top-level control transfer and may
	// take over execution of a region (see Hook). Speculative runtimes
	// use it to intercept loop entries.
	Hook Hook
}

// Result summarizes a completed run.
type Result struct {
	Output []string
	Steps  int64
	Mem    *Memory
}

// Run executes module m starting at main().
func Run(m *ir.Module, opts Options) (*Result, error) {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 200_000_000
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 10000
	}
	main := m.FuncNamed("main")
	if main == nil {
		return nil, fmt.Errorf("interp: module %s has no main", m.Name)
	}
	if len(main.Params) != 0 {
		return nil, fmt.Errorf("interp: main must take no parameters")
	}
	mem := NewMemory()
	it := &Interp{
		mod:     m,
		mem:     mem,
		heap:    mem,
		direct:  mem,
		opts:    opts,
		hook:    opts.Hook,
		globals: map[*ir.Global]uint64{},
		fns:     make([]*code, len(m.Funcs)),
	}
	for _, ob := range opts.Observers {
		ev := AllEvents
		if s, ok := ob.(Selective); ok {
			ev = s.Events()
		}
		for i := range it.on {
			if ev&(1<<i) != 0 {
				it.on[i] = append(it.on[i], ob)
			}
		}
	}
	for _, g := range m.Globals {
		o := it.heap.Allocate(g.Elem.Size(), nil, g)
		for i, v := range g.InitInt {
			if int64(i*8+8) <= o.Size {
				if _, err := it.heap.Store(o.Base+uint64(i*8), 8, uint64(v)); err != nil {
					return nil, err
				}
			}
		}
		it.globals[g] = o.Base
		it.alloc(o)
	}
	if _, err := it.call(main, funcIndex(m, main), nil, 0); err != nil {
		return nil, fmt.Errorf("interp: %w", err)
	}
	return &Result{Output: it.output, Steps: it.steps, Mem: it.heap}, nil
}

// Interp is the execution engine. mem is the load/store target (a View in
// forks); heap is the concrete memory allocation goes to (nil in forks,
// where allocation is refused).
type Interp struct {
	mod     *ir.Module
	mem     MemOps
	heap    *Memory
	memIA   instrAware
	opts    Options
	hook    Hook
	globals map[*ir.Global]uint64
	steps   int64
	output  []string
	// on lists, per event (bit i of Event), the observers it goes to.
	on [7][]Observer
	// direct is the concrete Memory a Run loads from and stores to (nil
	// in forks): loads and stores of eight bytes then try last[their
	// slot], the object the instruction last touched, before Memory's own
	// last-object check and search.
	direct *Memory
	last   []*Object
	// fns holds the decoded functions by position in mod.Funcs; a Fork
	// starts from a copy and shares the codes.
	fns   []*code
	pools pools
	// phis is the buffer of an edge's parallel copy when a move reads a
	// register another writes. Copies run without calls, so one buffer
	// serves every frame; a Fork gets its own.
	phis []uint64
	// acts holds one activation buffer per call depth, reused by every
	// call made at that depth; a Fork gets its own.
	acts []*activation
}

// Indexes into Interp.on, one per Event bit.
const (
	onEdge = iota
	onLoad
	onStore
	onAlloc
	onFree
	onCall
	onReturn
)

// activation is the reusable state of one call depth: the Frame the
// running activation executes in, its slots (registers, which the Frame's
// Regs alias, then parameters and constants), the arguments its caller
// evaluated into it, and the stack objects it allocated.
type activation struct {
	fr        Frame
	code      *code
	slots     []uint64
	args      []uint64
	stackObjs []*Object
}

// activation returns the buffer for call depth d, creating it on first
// use. Buffers are held by pointer, so a Frame stays put while deeper
// calls grow acts.
func (it *Interp) activation(d int) *activation {
	for len(it.acts) <= d {
		it.acts = append(it.acts, nil)
	}
	a := it.acts[d]
	if a == nil {
		a = &activation{}
		it.acts[d] = a
	}
	return a
}

// load sizes s to c's slots and fills them for a call with args: the
// registers zeroed, then the parameters and constants.
func load(c *code, s []uint64, args []uint64) []uint64 {
	n := c.nslots()
	if cap(s) < n {
		s = make([]uint64, n)
	}
	s = s[:n]
	clear(s[:c.nregs])
	copy(s[c.nregs:], args[:c.nparams])
	copy(s[c.nregs+c.nparams:], c.consts)
	return s
}

func (it *Interp) alloc(o *Object) {
	for _, ob := range it.on[onAlloc] {
		ob.Alloc(o)
	}
}

// call runs one activation of f (the module's function number fn, or -1)
// in the activation buffer of its depth, whose args the caller has
// filled (see opCall).
func (it *Interp) call(f *ir.Func, fn int32, args []uint64, depth int) (uint64, error) {
	if depth > it.opts.MaxDepth {
		return 0, fmt.Errorf("call depth limit exceeded in %s", f.Name)
	}
	c := it.code(f, fn, len(args))
	if len(c.blocks) == 0 {
		return 0, fmt.Errorf("%s has no blocks", f.Name)
	}
	a := it.activation(depth)
	a.code, a.slots = c, load(c, a.slots, args)
	a.fr = Frame{It: it, Fn: f, Regs: a.slots[:c.nregs:c.nregs], Args: args, Depth: depth}
	a.stackObjs = a.stackObjs[:0]
	v, err := it.exec(&a.fr, c, a.slots, 0, nil, -1, &a.stackObjs, nil, true)
	for _, o := range a.stackObjs {
		if !o.Freed {
			o.Freed = true
			o.Data = nil
			for _, ob := range it.on[onFree] {
				ob.Free(nil, o)
			}
		}
	}
	return v, err
}

// fail wraps err as the error of executing ins[pc].
func (c *code) fail(pc int32, err error) error {
	return fmt.Errorf("%s: %s: %w", c.fn.Name, ir.FormatInstr(c.src[pc]), err)
}

// enter runs the phi copy of entering block b from prev, the pred-th of
// its predecessors (pred < 0: look prev up), and charges the phis' steps.
func (it *Interp) enter(c *code, b *block, slots []uint64, prev *ir.Block, pred int32) error {
	if pred < 0 {
		for i, p := range b.blk.Preds {
			if p == prev {
				pred = int32(i)
				break
			}
		}
		if pred < 0 {
			return fmt.Errorf("%s: phi with no incoming value from %v", c.fn.Name, prev)
		}
	}
	e := &b.in[pred]
	if e.err != nil {
		return e.err
	}
	if e.direct {
		for _, m := range e.moves {
			slots[m.dst] = slots[m.src]
		}
	} else {
		vals := it.phis[:0]
		for _, m := range e.moves {
			vals = append(vals, slots[m.src])
		}
		for i, m := range e.moves {
			slots[m.dst] = vals[i]
		}
		it.phis = vals
	}
	it.steps += int64(b.nphi)
	return nil
}

var errNoSpecAlloc = errors.New("allocation inside a speculative region")

// exec is the block-dispatch engine shared by whole-function calls and
// bounded region execution. It runs c in slots from block bi, entered
// from prev (the pred-th of its predecessors; pred < 0: look it up).
// With region != nil, every control transfer is offered to region.stop
// before being taken; a satisfied stop records the transfer in region
// and returns without running the destination's phi copy. With hookable
// set (top-level execution only), it.hook is consulted before each
// block's phi copy and may redirect control.
func (it *Interp) exec(fr *Frame, c *code, slots []uint64, bi int32, prev *ir.Block, pred int32, stackObjs *[]*Object, region *RegionEnd, hookable bool) (uint64, error) {
	max := it.opts.MaxSteps
blocks:
	for {
		b := &c.blocks[bi]
		if hookable && it.hook != nil {
			nb, np, err := it.hook(fr, b.blk, prev)
			if err != nil {
				return 0, err
			}
			if nb != nil {
				if bi = c.blockIndex(nb); bi < 0 {
					return 0, fmt.Errorf("%s: hook resumed at block %s of another function", c.fn.Name, nb)
				}
				prev, pred = np, -1
				continue
			}
		}
		if b.nphi > 0 {
			if err := it.enter(c, b, slots, prev, pred); err != nil {
				return 0, err
			}
		}
		for pc := b.first; ; pc++ {
			d := &c.ins[pc]
			it.steps++
			if it.steps > max && d.op != opFallthrough {
				return 0, fmt.Errorf("instruction budget exceeded (%d)", max)
			}
			switch d.op {
			case opFail:
				return 0, c.errs[d.aux]
			case opFallthrough:
				it.steps-- // not an instruction
				return 0, c.errs[d.aux]
			case opAlloca:
				if it.heap == nil {
					return 0, c.fail(pc, errNoSpecAlloc)
				}
				o := it.heap.Allocate(d.imm, c.src[pc], nil)
				*stackObjs = append(*stackObjs, o)
				slots[d.dst] = o.Base
				it.alloc(o)
			case opMalloc:
				if it.heap == nil {
					return 0, c.fail(pc, errNoSpecAlloc)
				}
				o := it.heap.Allocate(int64(slots[d.a]), c.src[pc], nil)
				slots[d.dst] = o.Base
				it.alloc(o)
			case opFree:
				addr := slots[d.a]
				if addr == 0 {
					break // free(NULL) is a no-op
				}
				if it.heap == nil {
					return 0, c.fail(pc, errors.New("free inside a speculative region"))
				}
				o, err := it.heap.Free(addr)
				if err != nil {
					return 0, c.fail(pc, err)
				}
				for _, ob := range it.on[onFree] {
					ob.Free(c.src[pc], o)
				}
			case opLoad8:
				addr := slots[d.a]
				var v uint64
				var o *Object
				if m := it.direct; m != nil {
					if o = it.last[d.aux]; o == nil || !o.holds(addr, 8) {
						var err error
						if o, _, err = m.locateCached(addr, 8, "load"); err != nil {
							return 0, c.fail(pc, err)
						}
						it.last[d.aux] = o
					}
					v = binary.LittleEndian.Uint64(o.Data[addr-o.Base:])
				} else {
					if it.memIA != nil {
						it.memIA.SetInstr(c.src[pc])
					}
					var err error
					if v, o, err = it.mem.Load(addr, 8); err != nil {
						return 0, c.fail(pc, err)
					}
				}
				slots[d.dst] = v
				for _, ob := range it.on[onLoad] {
					ob.Load(c.src[pc], addr, 8, v, o)
				}
			case opLoad:
				addr := slots[d.a]
				if it.memIA != nil {
					it.memIA.SetInstr(c.src[pc])
				}
				v, o, err := it.mem.Load(addr, d.imm)
				if err != nil {
					return 0, c.fail(pc, err)
				}
				slots[d.dst] = v
				for _, ob := range it.on[onLoad] {
					ob.Load(c.src[pc], addr, d.imm, v, o)
				}
			case opStore8:
				val, addr := slots[d.a], slots[d.b]
				var o *Object
				if m := it.direct; m != nil {
					if o = it.last[d.aux]; o == nil || !o.holds(addr, 8) {
						var err error
						if o, _, err = m.locateCached(addr, 8, "store"); err != nil {
							return 0, c.fail(pc, err)
						}
						it.last[d.aux] = o
					}
					binary.LittleEndian.PutUint64(o.Data[addr-o.Base:], val)
				} else {
					if it.memIA != nil {
						it.memIA.SetInstr(c.src[pc])
					}
					var err error
					if o, err = it.mem.Store(addr, 8, val); err != nil {
						return 0, c.fail(pc, err)
					}
				}
				for _, ob := range it.on[onStore] {
					ob.Store(c.src[pc], addr, 8, val, o)
				}
			case opStore:
				val, addr := slots[d.a], slots[d.b]
				if it.memIA != nil {
					it.memIA.SetInstr(c.src[pc])
				}
				o, err := it.mem.Store(addr, d.imm, val)
				if err != nil {
					return 0, c.fail(pc, err)
				}
				for _, ob := range it.on[onStore] {
					ob.Store(c.src[pc], addr, d.imm, val, o)
				}
			case opIndex:
				slots[d.dst] = slots[d.a] + uint64(int64(slots[d.b])*d.imm)
			case opAddImm:
				slots[d.dst] = slots[d.a] + uint64(d.imm)
			case opAddI:
				slots[d.dst] = slots[d.a] + slots[d.b]
			case opSubI:
				slots[d.dst] = slots[d.a] - slots[d.b]
			case opMulI:
				slots[d.dst] = uint64(int64(slots[d.a]) * int64(slots[d.b]))
			case opDivI:
				y := int64(slots[d.b])
				if y == 0 {
					return 0, c.fail(pc, errors.New("integer division by zero"))
				}
				slots[d.dst] = uint64(int64(slots[d.a]) / y)
			case opRemI:
				y := int64(slots[d.b])
				if y == 0 {
					return 0, c.fail(pc, errors.New("integer remainder by zero"))
				}
				slots[d.dst] = uint64(int64(slots[d.a]) % y)
			case opAndI:
				slots[d.dst] = slots[d.a] & slots[d.b]
			case opOrI:
				slots[d.dst] = slots[d.a] | slots[d.b]
			case opXorI:
				slots[d.dst] = slots[d.a] ^ slots[d.b]
			case opShlI:
				slots[d.dst] = uint64(int64(slots[d.a]) << (slots[d.b] & 63))
			case opShrI:
				slots[d.dst] = uint64(int64(slots[d.a]) >> (slots[d.b] & 63))
			case opAddF:
				slots[d.dst] = f2b(b2f(slots[d.a]) + b2f(slots[d.b]))
			case opSubF:
				slots[d.dst] = f2b(b2f(slots[d.a]) - b2f(slots[d.b]))
			case opMulF:
				slots[d.dst] = f2b(b2f(slots[d.a]) * b2f(slots[d.b]))
			case opDivF:
				slots[d.dst] = f2b(b2f(slots[d.a]) / b2f(slots[d.b])) // IEEE: inf/nan allowed
			case opEqI:
				slots[d.dst] = b2u(slots[d.a] == slots[d.b])
			case opNeI:
				slots[d.dst] = b2u(slots[d.a] != slots[d.b])
			case opLtI:
				slots[d.dst] = b2u(int64(slots[d.a]) < int64(slots[d.b]))
			case opLeI:
				slots[d.dst] = b2u(int64(slots[d.a]) <= int64(slots[d.b]))
			case opGtI:
				slots[d.dst] = b2u(int64(slots[d.a]) > int64(slots[d.b]))
			case opGeI:
				slots[d.dst] = b2u(int64(slots[d.a]) >= int64(slots[d.b]))
			case opEqF:
				slots[d.dst] = b2u(b2f(slots[d.a]) == b2f(slots[d.b]))
			case opNeF:
				slots[d.dst] = b2u(b2f(slots[d.a]) != b2f(slots[d.b]))
			case opLtF:
				slots[d.dst] = b2u(b2f(slots[d.a]) < b2f(slots[d.b]))
			case opLeF:
				slots[d.dst] = b2u(b2f(slots[d.a]) <= b2f(slots[d.b]))
			case opGtF:
				slots[d.dst] = b2u(b2f(slots[d.a]) > b2f(slots[d.b]))
			case opGeF:
				slots[d.dst] = b2u(b2f(slots[d.a]) >= b2f(slots[d.b]))
			case opZero:
				slots[d.dst] = 0
			case opIntToFloat:
				slots[d.dst] = f2b(float64(int64(slots[d.a])))
			case opFloatToInt:
				slots[d.dst] = uint64(int64(b2f(slots[d.a])))
			case opMove:
				slots[d.dst] = slots[d.a]
			case opNop:
			case opCall:
				// The arguments go straight into the callee's activation
				// buffer.
				cs := &c.calls[d.aux]
				callee := it.activation(fr.Depth + 1)
				vals := callee.args[:0]
				for _, s := range cs.args {
					vals = append(vals, slots[s])
				}
				callee.args = vals
				for _, ob := range it.on[onCall] {
					ob.Call(c.src[pc], cs.f)
				}
				v, err := it.call(cs.f, cs.fn, vals, fr.Depth+1)
				if err != nil {
					return 0, err
				}
				for _, ob := range it.on[onReturn] {
					ob.Return(cs.f)
				}
				slots[d.dst] = v
			case opPrintInt:
				it.output = append(it.output, fmt.Sprintf("%d", int64(slots[d.a])))
				slots[d.dst] = 0
			case opPrintFloat:
				it.output = append(it.output, fmt.Sprintf("%g", b2f(slots[d.a])))
				slots[d.dst] = 0
			case opSqrt:
				slots[d.dst] = f2b(math.Sqrt(b2f(slots[d.a])))
			case opFabs:
				slots[d.dst] = f2b(math.Abs(b2f(slots[d.a])))
			case opBr, opCondBr:
				e := &c.edges[d.aux]
				if d.op == opCondBr && slots[d.a] == 0 {
					e = &c.edges[d.aux+1]
				}
				next := c.blocks[e.to].blk
				if region != nil && region.stop(b.blk, next) {
					region.From, region.To = b.blk, next
					return 0, nil
				}
				for _, ob := range it.on[onEdge] {
					ob.Edge(c.fn, b.blk, next)
				}
				prev, bi, pred = b.blk, e.to, e.pred
				continue blocks
			case opRet:
				v := slots[d.a]
				if region != nil {
					region.Returned, region.RetVal = true, v
				}
				return v, nil
			case opRetVoid:
				if region != nil {
					region.Returned = true
				}
				return 0, nil
			}
		}
	}
}

// Raw value conversions: every value is a raw 8-byte word.
func b2f(v uint64) float64 { return math.Float64frombits(v) }
func f2b(v float64) uint64 { return math.Float64bits(v) }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
