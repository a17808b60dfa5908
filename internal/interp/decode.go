package interp

import (
	"errors"
	"fmt"
	"math"

	"scaf/internal/ir"
)

// A run decodes each function at its first call into a code: a dense
// form the engine executes without looking at an ir.Value again. Every
// operand is a slot of the activation's slot array, which holds the
// registers (indexed by Instr.ID, the Frame's Regs), then the parameters,
// then the function's constants and global addresses, preloaded at each
// call. Opcodes are specialized by type and access width, IndexPtr
// scales and field offsets are precomputed, and so is the parallel phi
// copy of every CFG edge. Malformed IR decodes into instructions that
// fail, when executed, with the error the operand or instruction
// reports, so code that never runs never fails.
//
// A code is immutable once decoded. It lives with the Interp that
// decoded it, and forks share it read-only.
type code struct {
	fn      *ir.Func
	nregs   int32    // registers: fn.NumIDs()
	nparams int32    // parameter slots, after the registers
	argsErr bool     // some parameter's error names the argument count
	consts  []uint64 // constant and global slots, after the parameters
	ins     []inst
	src     []*ir.Instr // the instruction ins[i] decodes (nil if none)
	blocks  []block     // by position in fn.Blocks
	edges   []edge
	calls   []callSite
	errs    []error
}

// nslots returns the size of an activation's slot array.
func (c *code) nslots() int { return int(c.nregs+c.nparams) + len(c.consts) }

// op is a decoded opcode.
type op uint8

const (
	opFail        op = iota // fails with errs[aux]
	opFallthrough           // a block without terminator ran off its end
	opAlloca                // imm: size
	opMalloc
	opFree
	opLoad8  // aux: last-object slot
	opLoad   // imm: size, any width but 8
	opStore8 // a: value, b: address; aux: last-object slot
	opStore  // imm: size, any width but 8
	opIndex  // a: base, b: index; imm: element size
	opAddImm // a: base; imm: field offset
	opAddI
	opSubI
	opMulI
	opDivI
	opRemI
	opAndI
	opOrI
	opXorI
	opShlI
	opShrI
	opAddF
	opSubF
	opMulF
	opDivF
	opEqI
	opNeI
	opLtI
	opLeI
	opGtI
	opGeI
	opEqF
	opNeF
	opLtF
	opLeF
	opGtF
	opGeF
	opZero // a comparison of unknown kind: false
	opIntToFloat
	opFloatToInt
	opMove // bitcast
	opNop  // a cast of unknown kind writes nothing
	opCall // aux: calls index
	opPrintInt
	opPrintFloat
	opSqrt
	opFabs
	opBr     // aux: edge
	opCondBr // a: condition; aux: edge taken on true, aux+1 on false
	opRet
	opRetVoid
)

// inst is one decoded instruction. It holds no pointer, so the collector
// never scans a code's instructions; code.src has the ir.Instr.
type inst struct {
	op   op
	dst  int32 // result register: the instruction's ID
	a, b int32 // operand slots
	aux  int32
	imm  int64
}

// block is one decoded basic block. Its phis are not instructions: the
// edge a transfer takes copies their values in, and entering charges
// nphi steps.
type block struct {
	blk   *ir.Block
	first int32     // index of the first non-phi instruction in code.ins
	nphi  int32     // leading phis
	in    []phiEdge // by position in blk.Preds, when nphi > 0
}

// phiEdge is the parallel copy entering a block from one predecessor.
type phiEdge struct {
	moves  []move
	direct bool  // no move reads a register a move writes: copy in place
	err    error // the first phi with no incoming value or a bad one
}

type move struct{ dst, src int32 }

// edge is a branch target: the block and the branching block's position
// among its predecessors.
type edge struct{ to, pred int32 }

// callSite is a call of a defined function.
type callSite struct {
	f    *ir.Func
	fn   int32 // f's position in the module's Funcs, or -1
	args []int32
}

// code returns f's decoded form for an activation with nargs arguments.
// fn is f's position in the module's Funcs (-1 if it has none); the form
// is decoded once per run and kept in it.fns. An activation with fewer
// arguments than the form reads gets a form of its own, in which the
// missing parameters fail.
func (it *Interp) code(f *ir.Func, fn int32, nargs int) *code {
	var c *code
	if fn >= 0 {
		if c = it.fns[fn]; c == nil {
			c = it.decode(f, -1)
			it.fns[fn] = c
		}
	} else {
		c = it.decode(f, -1)
	}
	if nargs < int(c.nparams) || c.argsErr {
		c = it.decode(f, nargs)
	}
	return c
}

// funcIndex returns f's position in m.Funcs, or -1.
func funcIndex(m *ir.Module, f *ir.Func) int32 {
	for i, g := range m.Funcs {
		if g == f {
			return int32(i)
		}
	}
	return -1
}

// decoder holds the state of one decode.
type decoder struct {
	it    *Interp
	c     *code
	nargs int // the activation's argument count; -1: not known
}

// pools holds the chunks a run's decodes carve call arguments, phi edges
// and moves from, so a decode allocates a few times per function rather
// than per call site or edge.
type pools struct {
	args  []int32
	in    []phiEdge
	moves []move
}

// carve returns n fresh elements of *pool, starting a new chunk when the
// current one is full.
func carve[T any](pool *[]T, n int) []T {
	if cap(*pool)-len(*pool) < n {
		*pool = make([]T, 0, max(n, 2*cap(*pool), 16))
	}
	i := len(*pool)
	*pool = (*pool)[:i+n]
	return (*pool)[i : i+n : i+n]
}

// decode decodes f (see code) in one pass over its instructions. The
// form for an unknown argument count (nargs < 0) has a slot per declared
// parameter; a reference to any other parameter index marks it argsErr.
func (it *Interp) decode(f *ir.Func, nargs int) *code {
	c := &code{fn: f, nregs: int32(f.NumIDs()), nparams: int32(len(f.Params))}
	if nargs >= 0 {
		c.nparams = int32(nargs)
	}
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs) + 1
	}
	c.ins = make([]inst, 0, n)
	c.src = make([]*ir.Instr, 0, n)
	c.consts = make([]uint64, 0, n/4)
	c.edges = make([]edge, 0, 2*len(f.Blocks))
	c.blocks = make([]block, len(f.Blocks))
	for i, b := range f.Blocks {
		c.blocks[i].blk = b
	}
	d := &decoder{it: it, c: c, nargs: nargs}
	for i, b := range f.Blocks {
		d.block(&c.blocks[i], b)
	}
	return c
}

// block decodes b's instructions and, when it has phis, the copy each
// incoming edge makes.
func (d *decoder) block(db *block, b *ir.Block) {
	c := d.c
	nphi := 0
	for nphi < len(b.Instrs) && b.Instrs[nphi].Op == ir.OpPhi {
		nphi++
	}
	db.nphi = int32(nphi)
	db.first = int32(len(c.ins))
	if nphi > 0 {
		db.in = carve(&d.it.pools.in, len(b.Preds))
		for p, pred := range b.Preds {
			db.in[p] = d.phiEdge(b.Instrs[:nphi], pred)
		}
	}
	term := false
	for _, in := range b.Instrs[nphi:] {
		c.ins = append(c.ins, d.inst(in))
		c.src = append(c.src, in)
		if in.IsTerminator() {
			term = true
			break // the engine never passes a terminator
		}
	}
	if !term {
		c.ins = append(c.ins, d.fail(opFallthrough,
			fmt.Errorf("%s: block %s fell through without terminator", c.fn.Name, b)))
		c.src = append(c.src, nil)
	}
}

// phiEdge decodes the parallel copy of phis entering their block from pred.
func (d *decoder) phiEdge(phis []*ir.Instr, pred *ir.Block) phiEdge {
	e := phiEdge{moves: carve(&d.it.pools.moves, len(phis))[:0], direct: true}
	for _, phi := range phis {
		inc := ir.PhiIncoming(phi, pred)
		if inc == nil {
			e.err = fmt.Errorf("%s: phi with no incoming value from %v", d.c.fn.Name, pred)
			return e
		}
		src, err := d.operand(inc)
		if err == nil {
			err = d.register(phi)
		}
		if err != nil {
			e.err = fmt.Errorf("%s: %s: %w", d.c.fn.Name, ir.FormatInstr(phi), err)
			return e
		}
		e.moves = append(e.moves, move{dst: int32(phi.ID), src: src})
	}
	for _, m := range e.moves {
		for _, w := range e.moves {
			if m.src == w.dst {
				e.direct = false
			}
		}
	}
	return e
}

// operand returns the slot holding v, or the error evaluating v reports.
func (d *decoder) operand(v ir.Value) (int32, error) {
	c := d.c
	switch x := v.(type) {
	case *ir.Param:
		if x.Idx >= 0 && x.Idx < int(c.nparams) {
			return c.nregs + int32(x.Idx), nil
		}
		if d.nargs < 0 {
			// Its error names the argument count: every activation gets
			// a form decoded for its own.
			c.argsErr = true
			return 0, nil
		}
		return 0, fmt.Errorf("parameter index %d out of range (%d args)", x.Idx, d.nargs)
	case *ir.Instr:
		if x.ID < 0 || x.ID >= int(c.nregs) {
			return 0, fmt.Errorf("instruction id %d out of range (%d registers)", x.ID, c.nregs)
		}
		return int32(x.ID), nil
	}
	w, err := d.it.constant(v)
	if err != nil {
		return 0, err
	}
	for i, k := range c.consts {
		if k == w {
			return c.nregs + c.nparams + int32(i), nil
		}
	}
	c.consts = append(c.consts, w)
	return c.nregs + c.nparams + int32(len(c.consts)-1), nil
}

// register checks that in's result has a register.
func (d *decoder) register(in *ir.Instr) error {
	if in.ID < 0 || in.ID >= int(d.c.nregs) {
		return fmt.Errorf("instruction id %d out of range (%d registers)", in.ID, d.c.nregs)
	}
	return nil
}

// fail decodes an instruction that fails with err.
func (d *decoder) fail(o op, err error) inst {
	d.c.errs = append(d.c.errs, err)
	return inst{op: o, aux: int32(len(d.c.errs) - 1)}
}

// failf decodes in as an instruction that fails with err, wrapped as
// every error of an executing instruction is.
func (d *decoder) failf(in *ir.Instr, err error) inst {
	return d.fail(opFail, fmt.Errorf("%s: %s: %w", d.c.fn.Name, ir.FormatInstr(in), err))
}

// memSlot returns a fresh last-object slot for a load or store.
func (d *decoder) memSlot() int32 {
	d.it.last = append(d.it.last, nil)
	return int32(len(d.it.last) - 1)
}

// edge returns the edge number of a branch from b to its successor i.
func (d *decoder) edge(b *ir.Block, i int) (int32, error) {
	if i >= len(b.Succs) {
		return 0, fmt.Errorf("block %s has %d successors", b, len(b.Succs))
	}
	to := b.Succs[i]
	ti := d.c.blockIndex(to)
	if ti < 0 {
		return 0, fmt.Errorf("successor %s is not in %s", to, d.c.fn.Name)
	}
	pred := 0
	for pred < len(to.Preds) && to.Preds[pred] != b {
		pred++
	}
	if pred == len(to.Preds) {
		pred = -1 // entering searches, and fails if to has phis
	}
	d.c.edges = append(d.c.edges, edge{to: ti, pred: int32(pred)})
	return int32(len(d.c.edges) - 1), nil
}

// blockIndex returns b's position in the function, or -1.
func (c *code) blockIndex(b *ir.Block) int32 {
	if i := b.Index; i >= 0 && i < len(c.blocks) && c.blocks[i].blk == b {
		return int32(i)
	}
	for i := range c.blocks {
		if c.blocks[i].blk == b {
			return int32(i)
		}
	}
	return -1
}

var (
	binInt   = [...]op{ir.Add: opAddI, ir.Sub: opSubI, ir.Mul: opMulI, ir.Div: opDivI, ir.Rem: opRemI, ir.And: opAndI, ir.Or: opOrI, ir.Xor: opXorI, ir.Shl: opShlI, ir.Shr: opShrI}
	binFloat = [...]op{ir.Add: opAddF, ir.Sub: opSubF, ir.Mul: opMulF, ir.Div: opDivF}
	cmpInt   = [...]op{ir.Eq: opEqI, ir.Ne: opNeI, ir.Lt: opLtI, ir.Le: opLeI, ir.Gt: opGtI, ir.Ge: opGeI}
	cmpFloat = [...]op{ir.Eq: opEqF, ir.Ne: opNeF, ir.Lt: opLtF, ir.Le: opLeF, ir.Gt: opGtF, ir.Ge: opGeF}
)

// inst decodes one non-phi instruction. Operands decode in the order the
// instruction evaluates them, so a malformed one fails with the error
// its evaluation reports.
func (d *decoder) inst(in *ir.Instr) inst {
	c := d.c
	out := inst{dst: int32(in.ID)}
	nops := 0
	switch in.Op {
	case ir.OpMalloc, ir.OpFree, ir.OpLoad, ir.OpField, ir.OpCast, ir.OpCondBr:
		nops = 1
	case ir.OpStore, ir.OpIndex, ir.OpBin, ir.OpCmp:
		nops = 2
	case ir.OpRet:
		nops = min(len(in.Args), 1)
	}
	if len(in.Args) < nops {
		return d.failf(in, fmt.Errorf("%d operands, want %d", len(in.Args), nops))
	}
	for i := 0; i < nops; i++ {
		s, err := d.operand(in.Args[i])
		if err != nil {
			return d.failf(in, err)
		}
		if i == 0 {
			out.a = s
		} else {
			out.b = s
		}
	}
	switch in.Op {
	case ir.OpAlloca:
		if in.ElemTy == nil {
			return d.failf(in, errors.New("alloca of no type"))
		}
		out.op, out.imm = opAlloca, in.ElemTy.Size()
	case ir.OpMalloc:
		out.op = opMalloc
	case ir.OpFree:
		out.op = opFree
	case ir.OpLoad:
		if in.Ty == nil {
			return d.failf(in, errors.New("load of no type"))
		}
		out.op, out.imm = opLoad, in.Ty.Size()
		if out.imm == 8 {
			out.op, out.aux = opLoad8, d.memSlot()
		}
	case ir.OpStore:
		t := in.Args[0].Type()
		if t == nil {
			return d.failf(in, errors.New("store of no type"))
		}
		out.op, out.imm = opStore, t.Size()
		if out.imm == 8 {
			out.op, out.aux = opStore8, d.memSlot()
		}
	case ir.OpIndex:
		elem := ir.Pointee(in.Ty)
		if elem == nil {
			return d.failf(in, fmt.Errorf("index of non-pointer type %v", in.Ty))
		}
		out.op, out.imm = opIndex, elem.Size()
	case ir.OpField:
		st, ok := ir.Pointee(in.Args[0].Type()).(*ir.StructType)
		if !ok || in.FieldIdx < 0 || in.FieldIdx >= len(st.Fields) {
			return d.failf(in, fmt.Errorf("field %d of %v", in.FieldIdx, in.Args[0].Type()))
		}
		out.op, out.imm = opAddImm, st.Fields[in.FieldIdx].Offset
	case ir.OpBin:
		if ir.Equal(in.Ty, ir.Float) {
			if int(in.Bin) < 0 || int(in.Bin) >= len(binFloat) || binFloat[in.Bin] == 0 {
				return d.failf(in, fmt.Errorf("float %s unsupported", in.Bin))
			}
			out.op = binFloat[in.Bin]
		} else {
			if int(in.Bin) < 0 || int(in.Bin) >= len(binInt) {
				return d.failf(in, errors.New("unknown binop"))
			}
			out.op = binInt[in.Bin]
		}
	case ir.OpCmp:
		ops := cmpInt[:]
		if ir.Equal(in.Args[0].Type(), ir.Float) {
			ops = cmpFloat[:]
		}
		out.op = opZero
		if int(in.Cmp) >= 0 && int(in.Cmp) < len(ops) {
			out.op = ops[in.Cmp]
		}
	case ir.OpCast:
		switch in.Cast {
		case ir.IntToFloat:
			out.op = opIntToFloat
		case ir.FloatToInt:
			out.op = opFloatToInt
		case ir.Bitcast:
			out.op = opMove
		default:
			out.op = opNop
		}
	case ir.OpCall:
		out = d.call(in, out)
	case ir.OpBr:
		e, err := d.edge(in.Blk, 0)
		if err != nil {
			return d.failf(in, err)
		}
		out.op, out.aux = opBr, e
	case ir.OpCondBr:
		t, err := d.edge(in.Blk, 0)
		if err == nil {
			_, err = d.edge(in.Blk, 1) // numbered t+1
		}
		if err != nil {
			return d.failf(in, err)
		}
		out.op, out.aux = opCondBr, t
	case ir.OpRet:
		out.op = opRetVoid
		if nops > 0 {
			out.op = opRet
		}
	case ir.OpPhi:
		return d.fail(opFail, fmt.Errorf("%s: phi after non-phi in %s", c.fn.Name, in.Blk))
	default:
		return d.fail(opFail, fmt.Errorf("%s: cannot execute %s", c.fn.Name, ir.FormatInstr(in)))
	}
	switch out.op {
	case opFail, opFree, opStore, opStore8, opBr, opCondBr, opRet, opRetVoid:
	default: // the instruction writes its register
		if err := d.register(in); err != nil {
			return d.failf(in, err)
		}
	}
	return out
}

// call decodes a call: of a defined function, or of an intrinsic.
func (d *decoder) call(in *ir.Instr, out inst) inst {
	args := carve(&d.it.pools.args, len(in.Args))
	for i, v := range in.Args {
		s, err := d.operand(v)
		if err != nil {
			return d.failf(in, err)
		}
		args[i] = s
	}
	if in.Callee != nil {
		d.c.calls = append(d.c.calls, callSite{f: in.Callee, fn: funcIndex(d.it.mod, in.Callee), args: args})
		out.op, out.aux = opCall, int32(len(d.c.calls)-1)
		return out
	}
	switch in.Intrinsic {
	case "print_int":
		out.op = opPrintInt
	case "print_float":
		out.op = opPrintFloat
	case "sqrt":
		out.op = opSqrt
	case "fabs":
		out.op = opFabs
	default:
		return d.failf(in, fmt.Errorf("unknown intrinsic %s", in.Intrinsic))
	}
	if len(args) == 0 {
		return d.failf(in, fmt.Errorf("intrinsic %s takes an argument", in.Intrinsic))
	}
	out.a = args[0]
	return out
}

// constant returns the word of a constant or global operand, or the
// error for an operand kind the interpreter does not know.
func (it *Interp) constant(v ir.Value) (uint64, error) {
	switch x := v.(type) {
	case *ir.ConstInt:
		return uint64(x.V), nil
	case *ir.ConstFloat:
		return math.Float64bits(x.V), nil
	case *ir.ConstNull:
		return 0, nil
	case *ir.Global:
		return it.globals[x], nil
	}
	return 0, fmt.Errorf("unknown value %T (%v)", v, v)
}
