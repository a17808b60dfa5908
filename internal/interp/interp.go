package interp

import (
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
		opts:    opts,
		obs:     opts.Observers,
		hook:    opts.Hook,
		globals: map[*ir.Global]uint64{},
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
	if _, err := it.call(main, nil, 0); err != nil {
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
	obs     []Observer
	hook    Hook
	globals map[*ir.Global]uint64
	steps   int64
	output  []string
	// phis is exec's reusable buffer for a block's parallel phi copy. It
	// serves every frame: phi operands are evaluated without calls, so
	// no nested exec runs while it holds values, and a Fork gets its own.
	phis []uint64
	// acts holds one activation buffer per call depth, reused by every
	// call made at that depth; a Fork gets its own.
	acts []*activation
}

// activation is the reusable state of one call depth: the Frame the
// running activation executes in, its register file, the arguments its
// caller evaluated into it, and the stack objects it allocated.
type activation struct {
	fr        Frame
	regs      []uint64
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

func (it *Interp) alloc(o *Object) {
	for _, ob := range it.obs {
		ob.Alloc(o)
	}
}

// Raw value conversions: every value is a raw 8-byte word.
func b2f(v uint64) float64 { return math.Float64frombits(v) }
func f2b(v float64) uint64 { return math.Float64bits(v) }
func b2i(v uint64) int64   { return int64(v) }
func i2b(v int64) uint64   { return uint64(v) }

// eval resolves an operand to its raw 8-byte word. Malformed IR — an
// operand kind the evaluator does not know, or a parameter index outside
// the caller-supplied arguments — is reported as an error rather than a
// panic, so profilers and validators running over untrusted modules degrade
// gracefully (the error surfaces through Run).
func (it *Interp) eval(v ir.Value, regs []uint64, args []uint64) (uint64, error) {
	switch x := v.(type) {
	case *ir.ConstInt:
		return i2b(x.V), nil
	case *ir.ConstFloat:
		return f2b(x.V), nil
	case *ir.ConstNull:
		return 0, nil
	case *ir.Global:
		return it.globals[x], nil
	case *ir.Param:
		if x.Idx < 0 || x.Idx >= len(args) {
			return 0, fmt.Errorf("parameter index %d out of range (%d args)", x.Idx, len(args))
		}
		return args[x.Idx], nil
	case *ir.Instr:
		if x.ID < 0 || x.ID >= len(regs) {
			return 0, fmt.Errorf("instruction id %d out of range (%d registers)", x.ID, len(regs))
		}
		return regs[x.ID], nil
	}
	return 0, fmt.Errorf("unknown value %T (%v)", v, v)
}

// call runs one function activation in the activation buffer of its
// depth, whose args the caller has filled (see OpCall).
func (it *Interp) call(f *ir.Func, args []uint64, depth int) (uint64, error) {
	if depth > it.opts.MaxDepth {
		return 0, fmt.Errorf("call depth limit exceeded in %s", f.Name)
	}
	a := it.activation(depth)
	n := f.NumIDs()
	if cap(a.regs) < n {
		a.regs = make([]uint64, n)
	}
	a.regs = a.regs[:n]
	clear(a.regs)
	a.fr = Frame{It: it, Fn: f, Regs: a.regs, Args: args, Depth: depth}
	a.stackObjs = a.stackObjs[:0]
	v, err := it.exec(&a.fr, f.Entry(), nil, &a.stackObjs, nil, true)
	for _, o := range a.stackObjs {
		if !o.Freed {
			o.Freed = true
			o.Data = nil
			for _, ob := range it.obs {
				ob.Free(nil, o)
			}
		}
	}
	return v, err
}

// exec is the block-dispatch engine shared by whole-function calls and
// bounded region execution. With region != nil, every control transfer is
// offered to region.stop before being taken; a satisfied stop records the
// transfer in region and returns without evaluating the destination's
// phis. With hookable set (top-level execution only), it.hook is
// consulted before each block's phis and may redirect control.
func (it *Interp) exec(fr *Frame, block, prev *ir.Block, stackObjs *[]*Object, region *RegionEnd, hookable bool) (uint64, error) {
	f, regs, args, depth := fr.Fn, fr.Regs, fr.Args, fr.Depth
	for {
		if hookable && it.hook != nil {
			nb, np, err := it.hook(fr, block, prev)
			if err != nil {
				return 0, err
			}
			if nb != nil {
				prev, block = np, nb
				continue
			}
		}
		// Phis first, evaluated as a parallel copy from the incoming edge.
		nphi := 0
		for _, in := range block.Instrs {
			if in.Op != ir.OpPhi {
				break
			}
			nphi++
		}
		if nphi > 0 {
			if cap(it.phis) < nphi {
				it.phis = make([]uint64, nphi)
			}
			vals := it.phis[:nphi]
			for i := 0; i < nphi; i++ {
				inc := ir.PhiIncoming(block.Instrs[i], prev)
				if inc == nil {
					return 0, fmt.Errorf("%s: phi with no incoming value from %v", f.Name, prev)
				}
				v, err := it.eval(inc, regs, args)
				if err != nil {
					return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(block.Instrs[i]), err)
				}
				vals[i] = v
			}
			for i := 0; i < nphi; i++ {
				regs[block.Instrs[i].ID] = vals[i]
			}
			it.steps += int64(nphi)
		}

		for _, in := range block.Instrs[nphi:] {
			it.steps++
			if it.steps > it.opts.MaxSteps {
				return 0, fmt.Errorf("instruction budget exceeded (%d)", it.opts.MaxSteps)
			}
			switch in.Op {
			case ir.OpAlloca:
				if it.heap == nil {
					return 0, fmt.Errorf("%s: %s: allocation inside a speculative region", f.Name, ir.FormatInstr(in))
				}
				o := it.heap.Allocate(in.ElemTy.Size(), in, nil)
				*stackObjs = append(*stackObjs, o)
				regs[in.ID] = o.Base
				it.alloc(o)
			case ir.OpMalloc:
				raw, err := it.eval(in.Args[0], regs, args)
				if err != nil {
					return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(in), err)
				}
				if it.heap == nil {
					return 0, fmt.Errorf("%s: %s: allocation inside a speculative region", f.Name, ir.FormatInstr(in))
				}
				size := b2i(raw)
				o := it.heap.Allocate(size, in, nil)
				regs[in.ID] = o.Base
				it.alloc(o)
			case ir.OpFree:
				addr, err := it.eval(in.Args[0], regs, args)
				if err != nil {
					return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(in), err)
				}
				if addr == 0 {
					break // free(NULL) is a no-op
				}
				if it.heap == nil {
					return 0, fmt.Errorf("%s: %s: free inside a speculative region", f.Name, ir.FormatInstr(in))
				}
				o, err := it.heap.Free(addr)
				if err != nil {
					return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(in), err)
				}
				for _, ob := range it.obs {
					ob.Free(in, o)
				}
			case ir.OpLoad:
				addr, err := it.eval(in.Args[0], regs, args)
				if err != nil {
					return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(in), err)
				}
				size := in.Ty.Size()
				if it.memIA != nil {
					it.memIA.SetInstr(in)
				}
				v, o, err := it.mem.Load(addr, size)
				if err != nil {
					return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(in), err)
				}
				regs[in.ID] = v
				for _, ob := range it.obs {
					ob.Load(in, addr, size, v, o)
				}
			case ir.OpStore:
				val, err := it.eval(in.Args[0], regs, args)
				if err != nil {
					return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(in), err)
				}
				addr, err := it.eval(in.Args[1], regs, args)
				if err != nil {
					return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(in), err)
				}
				size := in.Args[0].Type().Size()
				if it.memIA != nil {
					it.memIA.SetInstr(in)
				}
				o, err := it.mem.Store(addr, size, val)
				if err != nil {
					return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(in), err)
				}
				for _, ob := range it.obs {
					ob.Store(in, addr, size, val, o)
				}
			case ir.OpIndex:
				base, err := it.eval(in.Args[0], regs, args)
				if err != nil {
					return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(in), err)
				}
				rawIdx, err := it.eval(in.Args[1], regs, args)
				if err != nil {
					return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(in), err)
				}
				idx := b2i(rawIdx)
				elem := ir.Pointee(in.Ty)
				regs[in.ID] = base + uint64(idx*elem.Size())
			case ir.OpField:
				base, err := it.eval(in.Args[0], regs, args)
				if err != nil {
					return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(in), err)
				}
				st := ir.Pointee(in.Args[0].Type()).(*ir.StructType)
				regs[in.ID] = base + uint64(st.Fields[in.FieldIdx].Offset)
			case ir.OpBin:
				x, err := it.eval(in.Args[0], regs, args)
				if err != nil {
					return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(in), err)
				}
				y, err := it.eval(in.Args[1], regs, args)
				if err != nil {
					return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(in), err)
				}
				v, err := evalBin(in, x, y)
				if err != nil {
					return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(in), err)
				}
				regs[in.ID] = v
			case ir.OpCmp:
				x, err := it.eval(in.Args[0], regs, args)
				if err != nil {
					return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(in), err)
				}
				y, err := it.eval(in.Args[1], regs, args)
				if err != nil {
					return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(in), err)
				}
				regs[in.ID] = evalCmp(in, x, y)
			case ir.OpCast:
				x, err := it.eval(in.Args[0], regs, args)
				if err != nil {
					return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(in), err)
				}
				switch in.Cast {
				case ir.IntToFloat:
					regs[in.ID] = f2b(float64(b2i(x)))
				case ir.FloatToInt:
					regs[in.ID] = i2b(int64(b2f(x)))
				case ir.Bitcast:
					regs[in.ID] = x
				}
			case ir.OpCall:
				// The arguments go straight into the callee's activation
				// buffer; an intrinsic borrows it, as it makes no call.
				callee := it.activation(depth + 1)
				vals := callee.args[:0]
				for _, a := range in.Args {
					v, err := it.eval(a, regs, args)
					if err != nil {
						return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(in), err)
					}
					vals = append(vals, v)
				}
				callee.args = vals
				if in.Callee == nil {
					v, err := it.intrinsic(in, vals)
					if err != nil {
						return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(in), err)
					}
					regs[in.ID] = v
					break
				}
				for _, ob := range it.obs {
					ob.Call(in, in.Callee)
				}
				v, err := it.call(in.Callee, vals, depth+1)
				if err != nil {
					return 0, err
				}
				for _, ob := range it.obs {
					ob.Return(in.Callee)
				}
				regs[in.ID] = v
			case ir.OpBr:
				next := block.Succs[0]
				if region != nil && region.stop(block, next) {
					region.From, region.To = block, next
					return 0, nil
				}
				for _, ob := range it.obs {
					ob.Edge(f, block, next)
				}
				prev, block = block, next
				goto nextBlock
			case ir.OpCondBr:
				c, err := it.eval(in.Args[0], regs, args)
				if err != nil {
					return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(in), err)
				}
				next := block.Succs[0]
				if c == 0 {
					next = block.Succs[1]
				}
				if region != nil && region.stop(block, next) {
					region.From, region.To = block, next
					return 0, nil
				}
				for _, ob := range it.obs {
					ob.Edge(f, block, next)
				}
				prev, block = block, next
				goto nextBlock
			case ir.OpRet:
				if len(in.Args) > 0 {
					v, err := it.eval(in.Args[0], regs, args)
					if err != nil {
						return 0, fmt.Errorf("%s: %s: %w", f.Name, ir.FormatInstr(in), err)
					}
					if region != nil {
						region.Returned, region.RetVal = true, v
					}
					return v, nil
				}
				if region != nil {
					region.Returned = true
				}
				return 0, nil
			case ir.OpPhi:
				return 0, fmt.Errorf("%s: phi after non-phi in %s", f.Name, block)
			default:
				return 0, fmt.Errorf("%s: cannot execute %s", f.Name, ir.FormatInstr(in))
			}
		}
		return 0, fmt.Errorf("%s: block %s fell through without terminator", f.Name, block)
	nextBlock:
	}
}

func evalBin(in *ir.Instr, x, y uint64) (uint64, error) {
	if ir.Equal(in.Ty, ir.Float) {
		a, b := b2f(x), b2f(y)
		switch in.Bin {
		case ir.Add:
			return f2b(a + b), nil
		case ir.Sub:
			return f2b(a - b), nil
		case ir.Mul:
			return f2b(a * b), nil
		case ir.Div:
			return f2b(a / b), nil // IEEE semantics: inf/nan allowed
		}
		return 0, fmt.Errorf("float %s unsupported", in.Bin)
	}
	a, b := b2i(x), b2i(y)
	switch in.Bin {
	case ir.Add:
		return i2b(a + b), nil
	case ir.Sub:
		return i2b(a - b), nil
	case ir.Mul:
		return i2b(a * b), nil
	case ir.Div:
		if b == 0 {
			return 0, fmt.Errorf("integer division by zero")
		}
		return i2b(a / b), nil
	case ir.Rem:
		if b == 0 {
			return 0, fmt.Errorf("integer remainder by zero")
		}
		return i2b(a % b), nil
	case ir.And:
		return i2b(a & b), nil
	case ir.Or:
		return i2b(a | b), nil
	case ir.Xor:
		return i2b(a ^ b), nil
	case ir.Shl:
		return i2b(a << uint(b&63)), nil
	case ir.Shr:
		return i2b(a >> uint(b&63)), nil
	}
	return 0, fmt.Errorf("unknown binop")
}

func evalCmp(in *ir.Instr, x, y uint64) uint64 {
	var r bool
	if ir.Equal(in.Args[0].Type(), ir.Float) {
		a, b := b2f(x), b2f(y)
		switch in.Cmp {
		case ir.Eq:
			r = a == b
		case ir.Ne:
			r = a != b
		case ir.Lt:
			r = a < b
		case ir.Le:
			r = a <= b
		case ir.Gt:
			r = a > b
		case ir.Ge:
			r = a >= b
		}
	} else {
		a, b := b2i(x), b2i(y)
		switch in.Cmp {
		case ir.Eq:
			r = a == b
		case ir.Ne:
			r = a != b
		case ir.Lt:
			r = a < b
		case ir.Le:
			r = a <= b
		case ir.Gt:
			r = a > b
		case ir.Ge:
			r = a >= b
		}
	}
	if r {
		return 1
	}
	return 0
}

func (it *Interp) intrinsic(in *ir.Instr, vals []uint64) (uint64, error) {
	switch in.Intrinsic {
	case "print_int":
		it.output = append(it.output, fmt.Sprintf("%d", b2i(vals[0])))
		return 0, nil
	case "print_float":
		it.output = append(it.output, fmt.Sprintf("%g", b2f(vals[0])))
		return 0, nil
	case "sqrt":
		return f2b(math.Sqrt(b2f(vals[0]))), nil
	case "fabs":
		return f2b(math.Abs(b2f(vals[0]))), nil
	}
	return 0, fmt.Errorf("unknown intrinsic %s", in.Intrinsic)
}
