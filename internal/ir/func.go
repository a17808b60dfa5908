package ir

import "fmt"

// Func is a function: an ordered list of basic blocks, Blocks[0] being the
// entry. Instruction IDs are unique within the function.
type Func struct {
	Name   string
	Params []*Param
	RetTy  Type
	Blocks []*Block
	Mod    *Module

	nextInstrID int
	nextBlockID int
}

func (f *Func) String() string { return "@" + f.Name }

// NewBlock appends a fresh, empty block named name to the function.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{Name: name, Index: f.nextBlockID, Fn: f}
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// Instrs calls fn for every instruction in the function.
func (f *Func) Instrs(fn func(*Instr)) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			fn(in)
		}
	}
}

// NumIDs returns an exclusive upper bound on instruction IDs in the
// function, usable to size dense per-instruction arrays.
func (f *Func) NumIDs() int { return f.nextInstrID }

// NumInstrs returns the total instruction count.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// newInstr allocates an instruction with a fresh ID, appended to block b.
func (f *Func) newInstr(b *Block, op Op, ty Type, args ...Value) *Instr {
	in := &Instr{ID: f.nextInstrID, Op: op, Ty: ty, Args: args, Blk: b}
	f.nextInstrID++
	b.Instrs = append(b.Instrs, in)
	return in
}

// Connect adds a CFG edge from to b, maintaining both edge lists.
func Connect(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// Builder methods. Each appends an instruction to the block and returns it.

func (b *Block) Alloca(elem Type, hint string) *Instr {
	in := b.Fn.newInstr(b, OpAlloca, PointerTo(elem))
	in.ElemTy = elem
	in.Hint = hint
	return in
}

func (b *Block) Malloc(elem Type, size Value, hint string) *Instr {
	in := b.Fn.newInstr(b, OpMalloc, PointerTo(elem), size)
	in.ElemTy = elem
	in.Hint = hint
	return in
}

func (b *Block) Free(ptr Value) *Instr {
	return b.Fn.newInstr(b, OpFree, Void, ptr)
}

func (b *Block) Load(ptr Value) *Instr {
	elem := Pointee(ptr.Type())
	if elem == nil {
		panic(fmt.Sprintf("ir: load of non-pointer %s: %s", ptr, ptr.Type()))
	}
	return b.Fn.newInstr(b, OpLoad, elem, ptr)
}

func (b *Block) Store(val, ptr Value) *Instr {
	return b.Fn.newInstr(b, OpStore, Void, val, ptr)
}

func (b *Block) IndexPtr(base, idx Value) *Instr {
	if !IsPointer(base.Type()) {
		panic(fmt.Sprintf("ir: index of non-pointer %s: %s", base, base.Type()))
	}
	return b.Fn.newInstr(b, OpIndex, base.Type(), base, idx)
}

func (b *Block) FieldAddr(base Value, idx int) *Instr {
	st, ok := Pointee(base.Type()).(*StructType)
	if !ok {
		panic(fmt.Sprintf("ir: field of non-struct-pointer %s: %s", base, base.Type()))
	}
	in := b.Fn.newInstr(b, OpField, PointerTo(st.Fields[idx].Ty), base)
	in.FieldIdx = idx
	return in
}

func (b *Block) BinIns(op BinOp, x, y Value) *Instr {
	in := b.Fn.newInstr(b, OpBin, x.Type(), x, y)
	in.Bin = op
	return in
}

func (b *Block) CmpIns(op CmpOp, x, y Value) *Instr {
	in := b.Fn.newInstr(b, OpCmp, Int, x, y)
	in.Cmp = op
	return in
}

func (b *Block) CastIns(kind CastKind, ty Type, x Value) *Instr {
	in := b.Fn.newInstr(b, OpCast, ty, x)
	in.Cast = kind
	return in
}

func (b *Block) Phi(ty Type, hint string) *Instr {
	in := b.Fn.newInstr(b, OpPhi, ty)
	in.Hint = hint
	return in
}

func (b *Block) Call(callee *Func, args ...Value) *Instr {
	in := b.Fn.newInstr(b, OpCall, callee.RetTy, args...)
	in.Callee = callee
	return in
}

func (b *Block) CallIntrinsic(name string, ty Type, args ...Value) *Instr {
	in := b.Fn.newInstr(b, OpCall, ty, args...)
	in.Intrinsic = name
	return in
}

func (b *Block) Br(to *Block) *Instr {
	in := b.Fn.newInstr(b, OpBr, Void)
	Connect(b, to)
	return in
}

func (b *Block) CondBr(cond Value, t, f *Block) *Instr {
	in := b.Fn.newInstr(b, OpCondBr, Void, cond)
	Connect(b, t)
	Connect(b, f)
	return in
}

func (b *Block) Ret(vals ...Value) *Instr {
	return b.Fn.newInstr(b, OpRet, Void, vals...)
}

// Module is a translation unit: globals, struct types, and functions.
type Module struct {
	Name    string
	Globals []*Global
	Structs []*StructType
	Funcs   []*Func

	funcByName   map[string]*Func
	globalByName map[string]*Global
}

// NewModule creates an empty module.
func NewModule(name string) *Module {
	return &Module{
		Name:         name,
		funcByName:   map[string]*Func{},
		globalByName: map[string]*Global{},
	}
}

// NewFunc creates a function and registers it in the module.
func (m *Module) NewFunc(name string, ret Type, params ...*Param) *Func {
	f := &Func{Name: name, RetTy: ret, Params: params, Mod: m}
	for i, p := range params {
		p.Idx = i
		p.Fn = f
	}
	m.Funcs = append(m.Funcs, f)
	m.funcByName[name] = f
	return f
}

// NewGlobal creates a global variable and registers it in the module.
func (m *Module) NewGlobal(name string, elem Type) *Global {
	g := &Global{GName: name, Elem: elem, ptr: PointerTo(elem)}
	m.Globals = append(m.Globals, g)
	m.globalByName[name] = g
	return g
}

// FuncNamed returns the function with the given name, or nil.
func (m *Module) FuncNamed(name string) *Func { return m.funcByName[name] }

// GlobalNamed returns the global with the given name, or nil.
func (m *Module) GlobalNamed(name string) *Global { return m.globalByName[name] }

// StructNamed returns the registered struct type with the given name, or nil.
func (m *Module) StructNamed(name string) *StructType {
	for _, s := range m.Structs {
		if s.TypeName == name {
			return s
		}
	}
	return nil
}
