package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeSizes(t *testing.T) {
	cases := []struct {
		ty   Type
		want int64
	}{
		{Int, 8},
		{Float, 8},
		{Void, 0},
		{PointerTo(Int), 8},
		{ArrayOf(Int, 10), 80},
		{ArrayOf(ArrayOf(Float, 4), 3), 96},
		{NewStruct("pair", Field{Name: "a", Ty: Int}, Field{Name: "b", Ty: Float}), 16},
		{NewStruct("node", Field{Name: "v", Ty: Int}, Field{Name: "arr", Ty: ArrayOf(Int, 4)}, Field{Name: "next", Ty: PointerTo(Int)}), 48},
	}
	for _, c := range cases {
		if got := c.ty.Size(); got != c.want {
			t.Errorf("size(%s) = %d, want %d", c.ty, got, c.want)
		}
	}
}

func TestStructOffsets(t *testing.T) {
	st := NewStruct("n", Field{Name: "a", Ty: Int}, Field{Name: "mid", Ty: ArrayOf(Int, 3)}, Field{Name: "z", Ty: Float})
	wantOffsets := []int64{0, 8, 32}
	for i, f := range st.Fields {
		if f.Offset != wantOffsets[i] {
			t.Errorf("field %s offset = %d, want %d", f.Name, f.Offset, wantOffsets[i])
		}
	}
	if st.FieldIndex("mid") != 1 {
		t.Errorf("FieldIndex(mid) = %d", st.FieldIndex("mid"))
	}
	if st.FieldIndex("nope") != -1 {
		t.Errorf("FieldIndex(nope) should be -1")
	}
}

func TestTypeEqual(t *testing.T) {
	s1 := NewStruct("s", Field{Name: "x", Ty: Int})
	s2 := NewStruct("s", Field{Name: "x", Ty: Int}, Field{Name: "y", Ty: Int})
	if !Equal(s1, s2) {
		t.Error("struct equality should be nominal")
	}
	if Equal(PointerTo(Int), PointerTo(Float)) {
		t.Error("int* != float*")
	}
	if !Equal(PointerTo(ArrayOf(Int, 3)), PointerTo(ArrayOf(Int, 3))) {
		t.Error("structural pointer equality failed")
	}
	if Equal(Int, Float) {
		t.Error("int != float")
	}
}

func TestAlign8Property(t *testing.T) {
	f := func(n uint16) bool {
		a := align8(int64(n))
		return a >= int64(n) && a%8 == 0 && a-int64(n) < 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// buildCounterFunc constructs:
//
//	func @count(n) int { s=0; for i=0..n: s+=i; return s }
func buildCounterFunc(m *Module) *Func {
	n := &Param{PName: "n", Ty: Int}
	f := m.NewFunc("count", Int, n)
	entry := f.NewBlock("entry")
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")

	entry.Br(head)
	i := head.Phi(Int, "i")
	s := head.Phi(Int, "s")
	c := head.CmpIns(Lt, i, n)
	head.CondBr(c, body, exit)
	i2 := body.BinIns(Add, i, CI(1))
	s2 := body.BinIns(Add, s, i)
	body.Br(head)
	exit.Ret(s)

	i.Args = []Value{CI(0), i2}
	s.Args = []Value{CI(0), s2}
	return f
}

func TestVerifyOK(t *testing.T) {
	m := NewModule("t")
	buildCounterFunc(m)
	if err := Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	m := NewModule("t")
	f := m.NewFunc("f", Void)
	f.NewBlock("entry") // no terminator
	if err := Verify(m); err == nil {
		t.Fatal("expected error for missing terminator")
	}
}

func TestVerifyCatchesPhiArity(t *testing.T) {
	m := NewModule("t")
	f := m.NewFunc("f", Void)
	entry := f.NewBlock("entry")
	next := f.NewBlock("next")
	entry.Br(next)
	p := next.Phi(Int, "x")
	p.Args = []Value{CI(1), CI(2)} // 2 args, 1 pred
	next.Ret()
	if err := Verify(m); err == nil {
		t.Fatal("expected phi arity error")
	}
}

func TestVerifyCatchesStoreTypeMismatch(t *testing.T) {
	m := NewModule("t")
	f := m.NewFunc("f", Void)
	entry := f.NewBlock("entry")
	a := entry.Alloca(Int, "a")
	entry.Store(CF(1.5), a) // float into int*
	entry.Ret()
	if err := Verify(m); err == nil {
		t.Fatal("expected store type error")
	}
}

func TestPointerOperand(t *testing.T) {
	m := NewModule("t")
	f := m.NewFunc("f", Void)
	entry := f.NewBlock("entry")
	a := entry.Alloca(ArrayOf(Int, 4), "a")
	base := entry.CastIns(Bitcast, PointerTo(Int), a)
	el := entry.IndexPtr(base, CI(2))
	st := entry.Store(CI(7), el)
	ld := entry.Load(el)
	entry.Ret()

	if p, sz, ok := st.PointerOperand(); !ok || p != Value(el) || sz != 8 {
		t.Errorf("store pointer operand: %v %d %v", p, sz, ok)
	}
	if p, sz, ok := ld.PointerOperand(); !ok || p != Value(el) || sz != 8 {
		t.Errorf("load pointer operand: %v %d %v", p, sz, ok)
	}
	if !st.Writes() || st.Reads() {
		t.Error("store should write, not read")
	}
	if !ld.Reads() || ld.Writes() {
		t.Error("load should read, not write")
	}
}

func TestFormatRoundtrip(t *testing.T) {
	m := NewModule("t")
	buildCounterFunc(m)
	txt := FormatModule(m)
	for _, want := range []string{"func @count", "phi", "cmp.lt", "condbr", "ret"} {
		if !strings.Contains(txt, want) {
			t.Errorf("formatted module missing %q:\n%s", want, txt)
		}
	}
}

func TestPhiIncoming(t *testing.T) {
	m := NewModule("t")
	f := buildCounterFunc(m)
	head := f.Blocks[1]
	body := f.Blocks[2]
	entry := f.Blocks[0]
	i := head.Instrs[0]
	if v := PhiIncoming(i, entry); v == nil || v.String() != "0" {
		t.Errorf("phi incoming from entry = %v", v)
	}
	if v := PhiIncoming(i, body); v == nil {
		t.Error("phi incoming from body is nil")
	}
}

func TestCallVerify(t *testing.T) {
	m := NewModule("t")
	callee := m.NewFunc("g", Int, &Param{PName: "x", Ty: Int})
	ce := callee.NewBlock("entry")
	ce.Ret(CI(0))
	f := m.NewFunc("f", Void)
	entry := f.NewBlock("entry")
	entry.Call(callee, CF(1.0)) // wrong arg type
	entry.Ret()
	if err := Verify(m); err == nil {
		t.Fatal("expected call arg type error")
	}
}

func TestModuleLookups(t *testing.T) {
	m := NewModule("t")
	g := m.NewGlobal("counter", Int)
	f := buildCounterFunc(m)
	st := NewStruct("node", Field{Name: "v", Ty: Int})
	m.Structs = append(m.Structs, st)
	if m.FuncNamed("count") != f {
		t.Error("FuncNamed failed")
	}
	if m.GlobalNamed("counter") != g {
		t.Error("GlobalNamed failed")
	}
	if m.StructNamed("node") != st {
		t.Error("StructNamed failed")
	}
	if m.FuncNamed("absent") != nil || m.GlobalNamed("absent") != nil || m.StructNamed("absent") != nil {
		t.Error("lookups of absent names should be nil")
	}
	if !IsPointer(g.Type()) || !Equal(Pointee(g.Type()), Int) {
		t.Error("global value type should be int*")
	}
}

func TestConstHelpers(t *testing.T) {
	if v, ok := ConstIntValue(CI(42)); !ok || v != 42 {
		t.Error("ConstIntValue(CI(42))")
	}
	if _, ok := ConstIntValue(CF(1)); ok {
		t.Error("ConstIntValue of float should fail")
	}
	if !IsConst(Null(PointerTo(Int))) {
		t.Error("null is const")
	}
	np := Null(PointerTo(Int))
	if np.String() != "null" || !IsPointer(np.Type()) {
		t.Error("null formatting/type")
	}
}

func TestFormatInstrAllOpcodes(t *testing.T) {
	m := NewModule("t")
	st := NewStruct("s", Field{Name: "f", Ty: Int})
	m.Structs = append(m.Structs, st)
	g := m.NewGlobal("g", Int)
	callee := m.NewFunc("callee", Int, &Param{PName: "x", Ty: Int})
	cb := callee.NewBlock("entry")
	cb.Ret(CI(1))

	f := m.NewFunc("f", Void, &Param{PName: "c", Ty: Int})
	b := f.NewBlock("entry")
	next := f.NewBlock("next")
	done := f.NewBlock("done")

	al := b.Alloca(Int, "slot")
	ml := b.Malloc(st, CI(16), "obj")
	fld := b.FieldAddr(ml, 0)
	b.Store(CI(3), fld)
	ld := b.Load(g)
	idx := b.IndexPtr(al, CI(0))
	bin := b.BinIns(Add, ld, CI(1))
	cmp := b.CmpIns(Le, bin, CI(10))
	cast := b.CastIns(IntToFloat, Float, bin)
	call := b.Call(callee, bin)
	intr := b.CallIntrinsic("print_float", Void, cast)
	fr := b.Free(ml)
	b.CondBr(cmp, next, done)
	next.Br(done)
	phi := done.Phi(Int, "m")
	phi.Args = []Value{CI(0), call}
	done.Ret()

	checks := map[*Instr]string{
		al: "alloca", ml: "malloc", fld: ".f", ld: "load", idx: "index",
		bin: "add", cmp: "cmp.le", cast: "itof", call: "call @callee",
		intr: "call @print_float", fr: "free", phi: "phi",
	}
	for in, want := range checks {
		if got := FormatInstr(in); !strings.Contains(got, want) {
			t.Errorf("FormatInstr(%s) = %q, missing %q", in.Op, got, want)
		}
	}
	if got := FormatInstr(b.Term()); !strings.Contains(got, "condbr") {
		t.Errorf("condbr format: %q", got)
	}
	if got := FormatInstr(next.Term()); !strings.Contains(got, "br ") {
		t.Errorf("br format: %q", got)
	}
	if err := Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// The control-flow analyses index dense tables by Block.Index, so Verify
// must reject a function whose block list disagrees with the indices.
func TestVerifyCatchesBlockIndexMismatch(t *testing.T) {
	m := NewModule("t")
	f := buildCounterFunc(m)
	f.Blocks[1], f.Blocks[2] = f.Blocks[2], f.Blocks[1]
	err := Verify(m)
	if err == nil {
		t.Fatal("expected a block-index error for a reordered block list")
	}
	if !strings.Contains(err.Error(), "position 1") {
		t.Errorf("error %q does not name the misplaced block's position", err)
	}
}

// Global.Type is called on every analysis query; it must hand back the
// global's one pointer type instead of building a fresh one.
func TestGlobalTypeIsShared(t *testing.T) {
	m := NewModule("t")
	g := m.NewGlobal("g", ArrayOf(Int, 4))
	if g.Type() != g.Type() {
		t.Error("Global.Type built a fresh pointer type")
	}
	if !Equal(g.Type(), PointerTo(ArrayOf(Int, 4))) {
		t.Errorf("Global.Type = %s, want int[4]*", g.Type())
	}
	if n := testing.AllocsPerRun(100, func() { _ = g.Type() }); n != 0 {
		t.Errorf("Global.Type allocates %.0f times per call", n)
	}
	// A Global built outside NewGlobal still answers its type.
	lit := &Global{GName: "lit", Elem: Int}
	if !Equal(lit.Type(), PointerTo(Int)) {
		t.Errorf("literal Global.Type = %s, want int*", lit.Type())
	}
}
