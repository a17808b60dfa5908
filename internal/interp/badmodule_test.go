package interp

import (
	"strings"
	"testing"

	"scaf/internal/ir"
)

// bogusValue is an operand kind the evaluator has never heard of —
// the stand-in for malformed IR produced by a buggy frontend.
type bogusValue struct{}

func (bogusValue) Type() ir.Type  { return ir.Int }
func (bogusValue) String() string { return "bogus" }

// TestMalformedOperandReturnsError is the regression test for the eval
// panic: a module carrying an unknown operand kind must surface as an
// error from Run, not crash the process.
func TestMalformedOperandReturnsError(t *testing.T) {
	m := ir.NewModule("bad")
	f := m.NewFunc("main", ir.Int)
	b := f.NewBlock("entry")
	b.Ret(bogusValue{})

	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Run panicked on malformed IR: %v", r)
		}
	}()
	_, err := Run(m, Options{})
	if err == nil {
		t.Fatal("Run accepted a module with an unknown operand kind")
	}
	if !strings.Contains(err.Error(), "unknown value") {
		t.Errorf("error %q does not identify the unknown operand", err)
	}
	if !strings.Contains(err.Error(), "main") {
		t.Errorf("error %q does not name the offending function", err)
	}
}

// TestMalformedOperandInArithmetic covers the non-terminator path: the
// bogus operand feeds a binop, so the error threads through the register
// evaluation loop rather than the return site.
func TestMalformedOperandInArithmetic(t *testing.T) {
	m := ir.NewModule("bad2")
	f := m.NewFunc("main", ir.Int)
	b := f.NewBlock("entry")
	sum := b.BinIns(ir.Add, ir.CI(1), bogusValue{})
	b.Ret(sum)

	if _, err := Run(m, Options{}); err == nil || !strings.Contains(err.Error(), "unknown value") {
		t.Fatalf("err = %v, want unknown-value error", err)
	}
}

// TestParamIndexOutOfRange: a Param operand whose index exceeds the
// supplied arguments is malformed in the same family — error, not panic.
func TestParamIndexOutOfRange(t *testing.T) {
	m := ir.NewModule("bad3")
	callee := m.NewFunc("f", ir.Int, &ir.Param{PName: "x", Ty: ir.Int, Idx: 0})
	cb := callee.NewBlock("entry")
	cb.Ret(&ir.Param{PName: "ghost", Ty: ir.Int, Idx: 3}) // only 1 arg supplied

	f := m.NewFunc("main", ir.Int)
	b := f.NewBlock("entry")
	call := b.Call(callee, ir.CI(7))
	b.Ret(call)

	if _, err := Run(m, Options{}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v, want out-of-range error", err)
	}
}

// TestMalformedCodeThatNeverRunsRunsClean: decoding is lazy about
// errors. A bogus operand in a block that never runs, in a phi on an
// edge never taken and in a function never called leaves the run clean.
func TestMalformedCodeThatNeverRunsRunsClean(t *testing.T) {
	m := ir.NewModule("dead")
	dead := m.NewFunc("dead", ir.Int)
	dead.NewBlock("entry").Ret(bogusValue{})

	f := m.NewFunc("main", ir.Int)
	entry := f.NewBlock("entry")
	never := f.NewBlock("never")
	join := f.NewBlock("join")
	entry.CondBr(ir.CI(1), join, never)
	sum := never.BinIns(ir.Add, ir.CI(1), bogusValue{})
	never.Call(dead)
	never.Br(join)
	phi := join.Phi(ir.Int, "p")
	phi.Args = []ir.Value{ir.CI(7), bogusValue{}} // from entry, from never
	join.Ret(phi)
	_ = sum

	res, err := Run(m, Options{})
	if err != nil {
		t.Fatalf("Run failed on malformed code that never runs: %v", err)
	}
	if res.Steps != 3 { // condbr, the phi, ret
		t.Errorf("steps = %d, want 3", res.Steps)
	}
}

// TestLoadIntoMissingRegister: a load of any width whose result has no
// register fails with the out-of-range error instead of writing past
// the registers.
func TestLoadIntoMissingRegister(t *testing.T) {
	for _, elem := range []ir.Type{ir.Int, &ir.ArrayType{Elem: ir.Int, Len: 2}} {
		m := ir.NewModule("badreg")
		f := m.NewFunc("main", ir.Int)
		b := f.NewBlock("entry")
		ld := b.Load(b.Alloca(elem, "x"))
		b.Ret(ir.CI(0))
		ld.ID = 40

		if _, err := Run(m, Options{}); err == nil || !strings.Contains(err.Error(), "instruction id 40 out of range") {
			t.Errorf("load of %v: err = %v, want out-of-range error", elem, err)
		}
	}
}
