package ir

import (
	"fmt"
	"strconv"
)

// Op enumerates instruction opcodes.
type Op int

const (
	OpInvalid Op = iota
	OpAlloca     // stack allocation of ElemTy; result *ElemTy
	OpMalloc     // heap allocation; Args[0] = size in bytes; result *ElemTy
	OpFree       // heap free; Args[0] = pointer
	OpLoad       // Args[0] = pointer; result Pointee(Args[0])
	OpStore      // Args[0] = value, Args[1] = pointer; no result
	OpIndex      // Args[0] = base *T, Args[1] = index; result *T (base + idx*sizeof T)
	OpField      // Args[0] = *struct; FieldIdx; result *fieldtype
	OpBin        // Bin; Args[0], Args[1]
	OpCmp        // Cmp; Args[0], Args[1]; result int (0/1)
	OpCast       // Cast; Args[0]
	OpPhi        // Args parallel to Blk.Preds
	OpCall       // Callee or Intrinsic; Args = actuals
	OpBr         // terminator; Blk.Succs[0]
	OpCondBr     // terminator; Args[0] = cond; Succs[0]=true, Succs[1]=false
	OpRet        // terminator; Args optional result
)

var opNames = [...]string{
	OpInvalid: "invalid", OpAlloca: "alloca", OpMalloc: "malloc",
	OpFree: "free", OpLoad: "load", OpStore: "store", OpIndex: "index",
	OpField: "field", OpBin: "bin", OpCmp: "cmp", OpCast: "cast",
	OpPhi: "phi", OpCall: "call", OpBr: "br", OpCondBr: "condbr", OpRet: "ret",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// BinOp enumerates binary arithmetic/logical operators.
type BinOp int

const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl
	Shr
)

var binNames = [...]string{"add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr"}

func (b BinOp) String() string { return binNames[b] }

// CmpOp enumerates comparison operators.
type CmpOp int

const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

var cmpNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

func (c CmpOp) String() string { return cmpNames[c] }

// CastKind enumerates conversions.
type CastKind int

const (
	IntToFloat CastKind = iota
	FloatToInt
	Bitcast // pointer-to-pointer reinterpretation
)

var castNames = [...]string{"itof", "ftoi", "bitcast"}

func (c CastKind) String() string { return castNames[c] }

// Instr is a single IR instruction. One concrete struct (rather than a
// type per opcode) keeps the interpreter's dispatch and the analyses'
// pattern matching compact; opcode-specific payload lives in the tail
// fields and is nil/zero when unused.
type Instr struct {
	ID   int // unique within the enclosing function; stable across passes
	Op   Op
	Ty   Type // result type; Void for non-value instructions
	Args []Value
	Blk  *Block

	// Opcode-specific payload.
	ElemTy    Type  // Alloca/Malloc: allocated element type
	FieldIdx  int   // Field: index into the struct type
	Bin       BinOp // Bin
	Cmp       CmpOp // Cmp
	Cast      CastKind
	Callee    *Func  // Call: statically resolved callee (nil for intrinsics)
	Intrinsic string // Call: intrinsic name when Callee is nil
	Hint      string // optional source-level name for diagnostics
	Line      int    // source line, 0 when unknown
}

func (in *Instr) Type() Type { return in.Ty }

func (in *Instr) String() string {
	var buf [32]byte
	return string(in.AppendName(buf[:0]))
}

// AppendName appends the instruction's printed name (its String form) to
// buf: "i<ID>" for a void instruction, "%<hint>.<ID>" or "%v<ID>" for a
// value.
func (in *Instr) AppendName(buf []byte) []byte {
	switch {
	case in.Ty == nil || in.Ty == Type(Void):
		buf = append(buf, 'i')
	case in.Hint != "":
		buf = append(buf, '%')
		buf = append(buf, in.Hint...)
		buf = append(buf, '.')
	default:
		buf = append(buf, "%v"...)
	}
	return strconv.AppendInt(buf, int64(in.ID), 10)
}

// IsTerminator reports whether the instruction ends a basic block.
func (in *Instr) IsTerminator() bool {
	return in.Op == OpBr || in.Op == OpCondBr || in.Op == OpRet
}

// AccessesMemory reports whether the instruction reads or writes memory
// directly (loads, stores) or may do so indirectly (calls to defined
// functions; intrinsics are memory-silent except their visible effects).
func (in *Instr) AccessesMemory() bool {
	switch in.Op {
	case OpLoad, OpStore:
		return true
	case OpCall:
		return in.Callee != nil
	}
	return false
}

// Reads reports whether the instruction may read memory.
func (in *Instr) Reads() bool {
	switch in.Op {
	case OpLoad:
		return true
	case OpCall:
		return in.Callee != nil
	}
	return false
}

// Writes reports whether the instruction may write memory.
func (in *Instr) Writes() bool {
	switch in.Op {
	case OpStore:
		return true
	case OpCall:
		return in.Callee != nil
	}
	return false
}

// PointerOperand returns the address operand of a load or store, and the
// byte size of the access. ok is false for other opcodes.
func (in *Instr) PointerOperand() (ptr Value, size int64, ok bool) {
	switch in.Op {
	case OpLoad:
		return in.Args[0], in.Ty.Size(), true
	case OpStore:
		return in.Args[1], in.Args[0].Type().Size(), true
	}
	return nil, 0, false
}

// IsAllocation reports whether the instruction creates a memory object
// (Alloca or Malloc), i.e. is an allocation site.
func (in *Instr) IsAllocation() bool { return in.Op == OpAlloca || in.Op == OpMalloc }

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator, with explicit predecessor/successor edges.
type Block struct {
	Name   string
	Index  int // position in Func.Blocks
	Fn     *Func
	Instrs []*Instr
	Preds  []*Block
	Succs  []*Block
}

func (b *Block) String() string {
	var buf [32]byte
	return string(b.AppendName(buf[:0]))
}

// AppendName appends the block's printed name (its String form,
// "<name>.<index>") to buf.
func (b *Block) AppendName(buf []byte) []byte {
	buf = append(buf, b.Name...)
	buf = append(buf, '.')
	return strconv.AppendInt(buf, int64(b.Index), 10)
}

// Term returns the block's terminator, or nil if the block is unfinished.
func (b *Block) Term() *Instr {
	if n := len(b.Instrs); n > 0 && b.Instrs[n-1].IsTerminator() {
		return b.Instrs[n-1]
	}
	return nil
}

// predIndex returns the position of p in b.Preds, or -1.
func (b *Block) predIndex(p *Block) int {
	for i, q := range b.Preds {
		if q == p {
			return i
		}
	}
	return -1
}

// PhiIncoming returns the value the phi instruction takes when control
// enters via predecessor pred.
func PhiIncoming(phi *Instr, pred *Block) Value {
	i := phi.Blk.predIndex(pred)
	if i < 0 || i >= len(phi.Args) {
		return nil
	}
	return phi.Args[i]
}
