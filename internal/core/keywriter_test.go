package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"scaf/internal/ir"
)

// wirePoint is the fmt rendering points have always had on the wire. The
// append writer behind Point.String and the interning keys must match it
// byte for byte: /observe, Revokers and persisted shards key on it.
func wirePoint(p Point) string {
	switch {
	case p.Instr != nil:
		return fmt.Sprintf("%s:%s", p.Instr.Blk.Fn.Name, wireInstr(p.Instr))
	case p.Block != nil && p.EdgeTo != nil:
		return fmt.Sprintf("%s:%s->%s", p.Block.Fn.Name, wireBlock(p.Block), wireBlock(p.EdgeTo))
	case p.Block != nil:
		return fmt.Sprintf("%s:%s", p.Block.Fn.Name, wireBlock(p.Block))
	case p.G != nil:
		return "@" + p.G.GName
	}
	return "?"
}

func wireInstr(in *ir.Instr) string {
	if in.Ty == nil || in.Ty == ir.Type(ir.Void) {
		return fmt.Sprintf("i%d", in.ID)
	}
	if in.Hint != "" {
		return fmt.Sprintf("%%%s.%d", in.Hint, in.ID)
	}
	return fmt.Sprintf("%%v%d", in.ID)
}

func wireBlock(b *ir.Block) string { return fmt.Sprintf("%s.%d", b.Name, b.Index) }

// wireKey and wireString are the fmt formulas of Assertion's full-content
// key and wire identity.
func wireKey(a Assertion) string {
	var b strings.Builder
	b.WriteString(a.Module + "/" + a.Kind)
	for _, p := range a.Points {
		b.WriteString("|" + wirePoint(p))
	}
	fmt.Fprintf(&b, "$%g", a.Cost)
	for _, p := range a.Conflicts {
		b.WriteString("^" + wirePoint(p))
	}
	return b.String()
}

func wireString(a Assertion) string {
	pts := make([]string, len(a.Points))
	for i, p := range a.Points {
		pts[i] = wirePoint(p)
	}
	return fmt.Sprintf("%s/%s{%s cost=%g}", a.Module, a.Kind, strings.Join(pts, ","), a.Cost)
}

// everyPointKind builds one point of each kind: an instruction with a
// hint, one without, a void instruction, a block, a CFG edge, a global,
// and the empty point.
func everyPointKind() (pts []Point, want []string) {
	mod := ir.NewModule("m")
	g := mod.NewGlobal("table", ir.ArrayOf(ir.Int, 8))
	f := mod.NewFunc("kernel", ir.Void)
	entry := f.NewBlock("entry")
	body := f.NewBlock("for.body")
	slot := entry.Alloca(ir.Int, "acc")
	ld := entry.Load(slot)
	st := entry.Store(ld, slot)
	entry.Br(body)
	body.Ret()
	pts = []Point{
		{Instr: slot}, {Instr: ld}, {Instr: st},
		{Block: body}, {Block: entry, EdgeTo: body},
		{G: g}, {},
	}
	want = []string{
		"kernel:%acc.0", "kernel:%v1", "kernel:i2",
		"kernel:for.body.1", "kernel:entry.0->for.body.1",
		"@table", "?",
	}
	return pts, want
}

func TestKeyWriterRendersEveryPointKind(t *testing.T) {
	pts, want := everyPointKind()
	for i, p := range pts {
		got := string(p.appendTo(nil))
		if got != want[i] || got != wirePoint(p) || p.String() != got {
			t.Errorf("point %d: writer %q, String %q, fmt %q, want %q",
				i, got, p.String(), wirePoint(p), want[i])
		}
	}
}

func TestKeyWriterRendersCostsLikePercentG(t *testing.T) {
	costs := []float64{
		0, math.Copysign(0, -1), 1, 2, 2.5, 20, 40, 0.1, 1e-7, 123456.5,
		999999, 1e6, 1e6 + 1, -1, -999999, -1e6, 1e18, 1e21, 1 << 53,
		CostMemSpecCheck * 4096, Prohibitive * 16,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		costs = append(costs, math.Round(r.Float64()*2e6)-1e6, r.Float64()*1e7, r.ExpFloat64())
	}
	for _, c := range costs {
		if got, want := string(appendCost(nil, c)), fmt.Sprintf("%g", c); got != want {
			t.Errorf("cost %v: writer %q, %%g %q", c, got, want)
		}
	}
}

func TestKeyWriterMatchesFmtIdentities(t *testing.T) {
	pts, _ := everyPointKind()
	for i, c := range []float64{0, 2.5, 1e6, Prohibitive} {
		a := Assertion{Module: "value-pred", Kind: "value-check", Points: pts, Cost: c,
			Conflicts: pts[i : i+2]}
		if got, want := a.computeKey(), wireKey(a); got != want {
			t.Errorf("key:\n got %q\nwant %q", got, want)
		}
		if got, want := a.String(), wireString(a); got != want {
			t.Errorf("wire identity:\n got %q\nwant %q", got, want)
		}
	}
	// A long key outgrows the interner's stack buffer and must still match.
	long := Assertion{Module: "control-spec", Kind: "never-taken-edges", Cost: 0}
	for i := 0; i < 40; i++ {
		long.Points = append(long.Points, pts[i%len(pts)])
	}
	it := NewInterner()
	if got, want := it.assert(long).key(), wireKey(long); got != want {
		t.Errorf("long key:\n got %q\nwant %q", got, want)
	}
}

// Interning an assertion the table has seen before builds its key in a
// stack buffer and looks it up without converting it: no allocation.
func TestInternRepeatAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	pts, _ := everyPointKind()
	a := Assertion{Module: "read-only", Kind: "ro-heap", Points: pts[:3], Cost: 2.5,
		Conflicts: pts[5:6]}
	it := NewInterner()
	first := it.assert(a)
	if allocs := testing.AllocsPerRun(100, func() {
		if it.assert(a).intern != first.intern {
			t.Fatal("repeat got a different handle")
		}
	}); allocs != 0 {
		t.Errorf("repeat interning allocates %.1f/op, want 0", allocs)
	}
}
