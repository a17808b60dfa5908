package cfg

import (
	"math/rand"
	"testing"

	"scaf/internal/ir"
)

// randomCFG builds a random function: n blocks, block 0 the entry, last
// block the only Ret, others ending in Br or CondBr to random targets.
func randomCFG(rng *rand.Rand, n int) *ir.Func {
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.Void, &ir.Param{PName: "c", Ty: ir.Int})
	blocks := make([]*ir.Block, n)
	for i := 0; i < n; i++ {
		blocks[i] = f.NewBlock("b")
	}
	for i := 0; i < n-1; i++ {
		t1 := blocks[1+rng.Intn(n-1)]
		if rng.Intn(2) == 0 {
			blocks[i].Br(t1)
		} else {
			t2 := blocks[1+rng.Intn(n-1)]
			blocks[i].CondBr(f.Params[0], t1, t2)
		}
	}
	blocks[n-1].Ret()
	return f
}

// bruteDominates computes dominance by definition: a dominates b iff b is
// unreachable from the entry when a is removed (and both are reachable).
func bruteDominates(f *ir.Func, a, b *ir.Block) bool {
	reach := reachable(f, nil)
	if !reach[a.Index] || !reach[b.Index] {
		return false
	}
	if a == b {
		return true
	}
	// BFS from entry avoiding a.
	seen := map[*ir.Block]bool{}
	queue := []*ir.Block{f.Entry()}
	if f.Entry() == a {
		return true // removing the entry makes everything unreachable
	}
	seen[f.Entry()] = true
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x == b {
			return false
		}
		for _, s := range x.Succs {
			if s != a && !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
	}
	return true
}

// brutePostDominates: a post-dominates b iff no return is reachable from
// b when a is removed.
func brutePostDominates(f *ir.Func, a, b *ir.Block) bool {
	reach := reachable(f, nil)
	if !reach[a.Index] || !reach[b.Index] {
		return false
	}
	if a == b {
		return true
	}
	seen := map[*ir.Block]bool{b: true}
	queue := []*ir.Block{b}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x != a {
			if t := x.Term(); t != nil && t.Op == ir.OpRet {
				return false
			}
		} else {
			continue
		}
		for _, s := range x.Succs {
			if !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
	}
	return true
}

// canReachRet reports whether any return is reachable from b.
func canReachRet(b *ir.Block) bool {
	seen := map[*ir.Block]bool{b: true}
	queue := []*ir.Block{b}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if t := x.Term(); t != nil && t.Op == ir.OpRet {
			return true
		}
		for _, s := range x.Succs {
			if !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
	}
	return false
}

// TestDominatorsAgainstBruteForce cross-checks the iterative dominator
// computation against the definition on many random CFGs.
func TestDominatorsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 120; trial++ {
		n := 3 + rng.Intn(10)
		f := randomCFG(rng, n)
		dt := Dominators(f, nil)
		reach := reachable(f, nil)
		for _, a := range f.Blocks {
			for _, b := range f.Blocks {
				want := bruteDominates(f, a, b)
				got := dt.Dominates(a, b)
				if got != want {
					t.Fatalf("trial %d: dom(%s,%s) = %v, want %v\n%s",
						trial, a, b, got, want, ir.FormatFunc(f))
				}
			}
		}
		// Reachability agrees.
		for _, b := range f.Blocks {
			if dt.Reachable(b) != reach[b.Index] {
				t.Fatalf("trial %d: reachable(%s) mismatch", trial, b)
			}
		}
	}
}

// TestPostDominatorsAgainstBruteForce does the same for the post-dominator
// tree, restricted to blocks that can reach a return (others are outside
// the analysis direction by construction).
func TestPostDominatorsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(999))
	for trial := 0; trial < 120; trial++ {
		n := 3 + rng.Intn(10)
		f := randomCFG(rng, n)
		pdt := PostDominators(f, nil)
		reach := reachable(f, nil)
		for _, a := range f.Blocks {
			for _, b := range f.Blocks {
				if !reach[a.Index] || !reach[b.Index] || !canReachRet(a) || !canReachRet(b) {
					continue
				}
				want := brutePostDominates(f, a, b)
				got := pdt.Dominates(a, b)
				if got != want {
					t.Fatalf("trial %d: postdom(%s,%s) = %v, want %v\n%s",
						trial, a, b, got, want, ir.FormatFunc(f))
				}
			}
		}
	}
}

// TestDominanceIsPartialOrder checks reflexivity, antisymmetry and
// transitivity on random CFGs.
func TestDominanceIsPartialOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 60; trial++ {
		f := randomCFG(rng, 3+rng.Intn(12))
		dt := Dominators(f, nil)
		var reachable []*ir.Block
		for _, b := range f.Blocks {
			if dt.Reachable(b) {
				reachable = append(reachable, b)
			}
		}
		for _, a := range reachable {
			if !dt.Dominates(a, a) {
				t.Fatalf("not reflexive at %s", a)
			}
			for _, b := range reachable {
				if a != b && dt.Dominates(a, b) && dt.Dominates(b, a) {
					t.Fatalf("not antisymmetric: %s, %s", a, b)
				}
				for _, c := range reachable {
					if dt.Dominates(a, b) && dt.Dominates(b, c) && !dt.Dominates(a, c) {
						t.Fatalf("not transitive: %s, %s, %s", a, b, c)
					}
				}
			}
		}
		// idom is the unique closest strict dominator.
		for _, b := range reachable {
			id := dt.IDom(b)
			if id == nil {
				continue
			}
			if !dt.Dominates(id, b) || id == b {
				t.Fatalf("idom(%s)=%s does not strictly dominate", b, id)
			}
			for _, a := range reachable {
				if a != b && a != id && dt.Dominates(a, b) && !dt.Dominates(a, id) {
					t.Fatalf("dominator %s of %s not above idom %s", a, b, id)
				}
			}
		}
	}
}

// TestLoopInvariants checks natural-loop facts on random reducible-ish
// structures: headers dominate their loop bodies.
func TestLoopInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 80; trial++ {
		f := randomCFG(rng, 4+rng.Intn(10))
		dt := Dominators(f, nil)
		forest := Loops(f, dt)
		for _, l := range forest.All {
			for b := range l.Blocks {
				if !dt.Dominates(l.Header, b) {
					// Irreducible region: natural-loop construction from
					// back edges guarantees header dominance only for true
					// back edges, which is how we detected them — so this
					// must never fire.
					t.Fatalf("trial %d: header %s does not dominate member %s",
						trial, l.Header, b)
				}
			}
			for _, latch := range l.Latches {
				if !l.Blocks[latch] {
					t.Fatalf("latch %s outside loop", latch)
				}
			}
			for _, exit := range l.Exits {
				if l.Blocks[exit] {
					t.Fatalf("exit %s inside loop", exit)
				}
			}
			if l.Parent != nil && !l.Parent.Blocks[l.Header] {
				t.Fatalf("nesting broken: parent lacks child header")
			}
		}
	}
}
