package cfg

import (
	"fmt"
	"testing"

	"scaf/internal/ir"
)

// diamond builds:
//
//	entry -> (then | else) -> join -> exit(ret)
func diamond(t *testing.T) (*ir.Func, []*ir.Block) {
	t.Helper()
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.Void, &ir.Param{PName: "c", Ty: ir.Int})
	entry := f.NewBlock("entry")
	then := f.NewBlock("then")
	els := f.NewBlock("else")
	join := f.NewBlock("join")
	entry.CondBr(f.Params[0], then, els)
	then.Br(join)
	els.Br(join)
	join.Ret()
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return f, []*ir.Block{entry, then, els, join}
}

// loopFunc builds: entry -> head; head -> body|exit; body -> head.
func loopFunc(t *testing.T) (*ir.Func, []*ir.Block) {
	t.Helper()
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.Void, &ir.Param{PName: "c", Ty: ir.Int})
	entry := f.NewBlock("entry")
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")
	entry.Br(head)
	head.CondBr(f.Params[0], body, exit)
	body.Br(head)
	exit.Ret()
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return f, []*ir.Block{entry, head, body, exit}
}

func TestDominatorsDiamond(t *testing.T) {
	f, bs := diamond(t)
	entry, then, els, join := bs[0], bs[1], bs[2], bs[3]
	dt := Dominators(f, nil)

	checks := []struct {
		a, b *ir.Block
		want bool
	}{
		{entry, entry, true},
		{entry, then, true},
		{entry, els, true},
		{entry, join, true},
		{then, join, false},
		{els, join, false},
		{join, then, false},
		{then, els, false},
	}
	for _, c := range checks {
		if got := dt.Dominates(c.a, c.b); got != c.want {
			t.Errorf("dom(%s,%s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if dt.IDom(join) != entry {
		t.Errorf("idom(join) = %v, want entry", dt.IDom(join))
	}
	if dt.IDom(entry) != nil {
		t.Errorf("idom(entry) should be nil")
	}
	if len(dt.Roots()) != 1 || dt.Roots()[0] != entry {
		t.Errorf("roots = %v", dt.Roots())
	}
}

func TestPostDominatorsDiamond(t *testing.T) {
	f, bs := diamond(t)
	entry, then, els, join := bs[0], bs[1], bs[2], bs[3]
	pdt := PostDominators(f, nil)

	if !pdt.Dominates(join, entry) {
		t.Error("join should post-dominate entry")
	}
	if !pdt.Dominates(join, then) || !pdt.Dominates(join, els) {
		t.Error("join should post-dominate both arms")
	}
	if pdt.Dominates(then, entry) {
		t.Error("then should not post-dominate entry")
	}
	if pdt.IDom(entry) != join {
		t.Errorf("post-idom(entry) = %v, want join", pdt.IDom(entry))
	}
}

func TestEdgeFilterSpecializesDominance(t *testing.T) {
	f, bs := diamond(t)
	entry, then, _, join := bs[0], bs[1], bs[2], bs[3]

	// Remove the entry->else edge: then now dominates join.
	filter := func(from, to *ir.Block) bool {
		return !(from == entry && to == bs[2])
	}
	dt := Dominators(f, filter)
	if !dt.Dominates(then, join) {
		t.Error("with else-edge removed, then should dominate join")
	}
	if dt.Reachable(bs[2]) {
		t.Error("else should be unreachable under the filter")
	}
	// Post-dominators under the same filter.
	pdt := PostDominators(f, filter)
	if !pdt.Dominates(then, entry) {
		t.Error("with else-edge removed, then should post-dominate entry")
	}
}

func TestDominatesInstrSameBlock(t *testing.T) {
	f, bs := diamond(t)
	entry := bs[0]
	m := f.Mod
	_ = m
	// Insert two instructions before the terminator by rebuilding: use a
	// fresh function instead.
	m2 := ir.NewModule("t2")
	g := m2.NewFunc("g", ir.Void)
	b := g.NewBlock("entry")
	a1 := b.Alloca(ir.Int, "a")
	i1 := b.Store(ir.CI(1), a1)
	i2 := b.Load(a1)
	b.Ret()
	dt := Dominators(g, nil)
	pdt := PostDominators(g, nil)
	if !dt.DominatesInstr(i1, i2) || dt.DominatesInstr(i2, i1) {
		t.Error("same-block dominance by order failed")
	}
	if !pdt.DominatesInstr(i2, i1) || pdt.DominatesInstr(i1, i2) {
		t.Error("same-block post-dominance by order failed")
	}
	_ = entry
	_ = f
}

func TestLoopsSimple(t *testing.T) {
	f, bs := loopFunc(t)
	head, body, exit := bs[1], bs[2], bs[3]
	dt := Dominators(f, nil)
	forest := Loops(f, dt)

	if len(forest.All) != 1 {
		t.Fatalf("found %d loops, want 1", len(forest.All))
	}
	l := forest.All[0]
	if l.Header != head {
		t.Errorf("header = %v", l.Header)
	}
	if !l.Contains(head) || !l.Contains(body) || l.Contains(exit) || l.Contains(bs[0]) {
		t.Errorf("loop membership wrong: %v", l.Blocks)
	}
	if len(l.Latches) != 1 || l.Latches[0] != body {
		t.Errorf("latches = %v", l.Latches)
	}
	if len(l.Exits) != 1 || l.Exits[0] != exit {
		t.Errorf("exits = %v", l.Exits)
	}
	if l.Depth != 1 || l.Parent != nil {
		t.Errorf("depth=%d parent=%v", l.Depth, l.Parent)
	}
	if forest.LoopOf(body) != l || forest.LoopOf(exit) != nil {
		t.Error("LoopOf wrong")
	}
}

func TestNestedLoops(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.Void, &ir.Param{PName: "c", Ty: ir.Int})
	c := f.Params[0]
	entry := f.NewBlock("entry")
	oh := f.NewBlock("outer_head")
	ih := f.NewBlock("inner_head")
	ib := f.NewBlock("inner_body")
	ol := f.NewBlock("outer_latch")
	exit := f.NewBlock("exit")
	entry.Br(oh)
	oh.CondBr(c, ih, exit)
	ih.CondBr(c, ib, ol)
	ib.Br(ih)
	ol.Br(oh)
	exit.Ret()
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}

	dt := Dominators(f, nil)
	forest := Loops(f, dt)
	if len(forest.All) != 2 {
		t.Fatalf("found %d loops, want 2", len(forest.All))
	}
	outer := forest.ByHeader[oh]
	inner := forest.ByHeader[ih]
	if outer == nil || inner == nil {
		t.Fatal("missing loop headers")
	}
	if inner.Parent != outer || outer.Depth != 1 || inner.Depth != 2 {
		t.Errorf("nesting wrong: inner.Parent=%v outer.Depth=%d inner.Depth=%d", inner.Parent, outer.Depth, inner.Depth)
	}
	if forest.LoopOf(ib) != inner || forest.LoopOf(ol) != outer {
		t.Error("innermost map wrong")
	}
	if len(forest.Top) != 1 || forest.Top[0] != outer {
		t.Errorf("top loops = %v", forest.Top)
	}
	// Loops names each loop once; a loop built as a literal names itself.
	for _, l := range []*Loop{outer, inner, {Fn: f, Header: ih}} {
		if want := fmt.Sprintf("%s/%s", l.Fn.Name, l.Header); l.Name() != want {
			t.Errorf("loop name %q, want %q", l.Name(), want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { inner.Name() }); n != 0 {
		t.Errorf("Name of a built loop allocated %.0f times", n)
	}
}

func TestFrontiers(t *testing.T) {
	f, bs := diamond(t)
	entry, then, els, join := bs[0], bs[1], bs[2], bs[3]
	dt := Dominators(f, nil)
	df := Frontiers(dt)
	if len(df[then]) != 1 || df[then][0] != join {
		t.Errorf("DF(then) = %v, want [join]", df[then])
	}
	if len(df[els]) != 1 || df[els][0] != join {
		t.Errorf("DF(else) = %v, want [join]", df[els])
	}
	if len(df[entry]) != 0 {
		t.Errorf("DF(entry) = %v, want empty", df[entry])
	}
	if len(df[join]) != 0 {
		t.Errorf("DF(join) = %v, want empty", df[join])
	}
}

func TestFrontiersLoop(t *testing.T) {
	f, bs := loopFunc(t)
	head, body := bs[1], bs[2]
	dt := Dominators(f, nil)
	df := Frontiers(dt)
	// The loop body's frontier includes the header (the classic case that
	// places phis at loop headers).
	found := false
	for _, b := range df[body] {
		if b == head {
			found = true
		}
	}
	if !found {
		t.Errorf("DF(body) = %v, want to contain head", df[body])
	}
	// head's own frontier contains head (it is in the loop it heads).
	found = false
	for _, b := range df[head] {
		if b == head {
			found = true
		}
	}
	if !found {
		t.Errorf("DF(head) = %v, want to contain head", df[head])
	}
}

func TestReachableBlocks(t *testing.T) {
	f, bs := diamond(t)
	for i, ok := range reachable(f, nil) {
		if !ok {
			t.Errorf("block %s unreachable, want all 4 reachable", f.Blocks[i])
		}
	}
	r := reachable(f, func(from, to *ir.Block) bool { return to != bs[3] })
	if r[bs[3].Index] {
		t.Error("join should be filtered out")
	}
	if !r[bs[1].Index] || !r[bs[2].Index] {
		t.Error("arms should stay reachable")
	}
}

func TestIsBackEdge(t *testing.T) {
	f, bs := loopFunc(t)
	dt := Dominators(f, nil)
	if !IsBackEdge(dt, bs[2], bs[1]) {
		t.Error("body->head should be a back edge")
	}
	if IsBackEdge(dt, bs[1], bs[2]) {
		t.Error("head->body is not a back edge")
	}
}

func TestLoopMemOps(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.Void, &ir.Param{PName: "c", Ty: ir.Int})
	entry := f.NewBlock("entry")
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")
	g := m.NewGlobal("g", ir.Int)
	entry.Br(head)
	head.CondBr(f.Params[0], body, exit)
	body.Store(ir.CI(1), g)
	ld := body.Load(g)
	_ = ld
	body.Br(head)
	exit.Ret()

	dt := Dominators(f, nil)
	forest := Loops(f, dt)
	ops := forest.All[0].MemOps()
	if len(ops) != 2 {
		t.Fatalf("mem ops = %d, want 2", len(ops))
	}
	if ops[0].Op != ir.OpStore || ops[1].Op != ir.OpLoad {
		t.Errorf("mem ops order wrong: %v %v", ops[0].Op, ops[1].Op)
	}
}

// The trees and loops index dense tables by Block.Index. A block of
// another function shares index values with the function's own blocks,
// and a block added after the analyses ran has no slot; both must read as
// outside, as they did when the facts were maps keyed by block.
func TestForeignBlocksReadAsOutside(t *testing.T) {
	f, bs := loopFunc(t)
	_, gbs := loopFunc(t)
	dt, pdt := Dominators(f, nil), PostDominators(f, nil)
	l := Loops(f, dt).All[0]
	late := f.NewBlock("late") // index 4: past every table
	for _, b := range append(gbs, late) {
		if dt.Reachable(b) || pdt.Reachable(b) {
			t.Errorf("block %s of %s reads as reachable in %s's trees", b, b.Fn, f)
		}
		if dt.Dominates(bs[0], b) || dt.Dominates(b, b) || dt.IDom(b) != nil || dt.Children(b) != nil {
			t.Errorf("block %s of %s has dominance facts in %s's tree", b, b.Fn, f)
		}
		if l.Contains(b) {
			t.Errorf("block %s of %s reads as inside %s", b, b.Fn, l.Name())
		}
	}
	if !l.Contains(bs[2]) || l.Contains(nil) {
		t.Errorf("loop membership wrong: body %v, nil %v", l.Contains(bs[2]), l.Contains(nil))
	}
}
