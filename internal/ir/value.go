package ir

import "fmt"

// Value is anything an instruction can use as an operand: constants,
// globals (whose value is their address), function parameters, and the
// results of other instructions.
type Value interface {
	Type() Type
	String() string
}

// ConstInt is an integer literal.
type ConstInt struct{ V int64 }

// ConstFloat is a floating-point literal.
type ConstFloat struct{ V float64 }

// ConstNull is the null pointer of a given pointer type.
type ConstNull struct{ Ty *PtrType }

func (c *ConstInt) Type() Type   { return Int }
func (c *ConstFloat) Type() Type { return Float }
func (c *ConstNull) Type() Type  { return c.Ty }

func (c *ConstInt) String() string   { return fmt.Sprintf("%d", c.V) }
func (c *ConstFloat) String() string { return fmt.Sprintf("%g", c.V) }
func (c *ConstNull) String() string  { return "null" }

// CI returns an integer constant.
func CI(v int64) *ConstInt { return &ConstInt{V: v} }

// CF returns a float constant.
func CF(v float64) *ConstFloat { return &ConstFloat{V: v} }

// Null returns the null pointer of type t (which must be a pointer type).
func Null(t *PtrType) *ConstNull { return &ConstNull{Ty: t} }

// Global is a module-level variable. Its Value is the address of the
// storage, so its type is a pointer to Elem. Globals are allocation sites
// for the purposes of points-to reasoning.
type Global struct {
	GName string
	Elem  Type
	// InitInt optionally seeds the first words of the global's storage.
	InitInt []int64
	// Internal is true when the global's address is never taken except by
	// direct loads/stores in this module (set by the front-end; the
	// no-capture-global analysis verifies it independently).
	Internal bool

	// ptr is the global's address type, made once by Module.NewGlobal so
	// that Type, which analyses call on every query, does not allocate.
	ptr *PtrType
}

func (g *Global) Type() Type {
	if g.ptr != nil {
		return g.ptr
	}
	return PointerTo(g.Elem) // a Global built outside NewGlobal
}

func (g *Global) String() string { return "@" + g.GName }

// Param is a formal parameter of a function.
type Param struct {
	PName string
	Ty    Type
	Idx   int
	Fn    *Func
}

func (p *Param) Type() Type     { return p.Ty }
func (p *Param) String() string { return "%" + p.PName }

// IsConst reports whether v is a compile-time constant.
func IsConst(v Value) bool {
	switch v.(type) {
	case *ConstInt, *ConstFloat, *ConstNull:
		return true
	}
	return false
}

// ConstIntValue returns the value of v if it is a ConstInt.
func ConstIntValue(v Value) (int64, bool) {
	if c, ok := v.(*ConstInt); ok {
		return c.V, true
	}
	return 0, false
}
