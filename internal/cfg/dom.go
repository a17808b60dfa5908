// Package cfg provides control-flow analyses over the IR: reachability,
// dominator and post-dominator trees, and the natural-loop forest.
//
// Every analysis accepts an optional EdgeFilter. Filtering edges out is how
// speculative control flow is expressed: the control-speculation module
// removes profiled-never-taken edges and recomputes the trees on the
// filtered graph, without ever mutating the IR (paper §3.5: "SCAF does not
// change the code").
package cfg

import (
	"sort"

	"scaf/internal/ir"
)

// EdgeFilter reports whether the CFG edge from→to should be considered.
// A nil filter keeps every edge.
type EdgeFilter func(from, to *ir.Block) bool

// Tree is a dominator or post-dominator tree. The zero value is not usable;
// construct with Dominators or PostDominators.
//
// Per-block facts live in slices indexed by Block.Index (ir.Verify checks
// that it is the block's position in Func.Blocks), so the queries below,
// which analysis modules ask on every path search, are array loads. A
// block of another function, or one added after the tree was built, reads
// as unreachable.
type Tree struct {
	fn    *ir.Func
	post  bool
	idom  []*ir.Block // nil parent means "child of the virtual root"
	reach []bool
	in    []int32 // Euler tour interval for O(1) dominance
	out   []int32
	kids  [][]*ir.Block
	roots []*ir.Block
}

// Fn returns the function the tree was computed for.
func (t *Tree) Fn() *ir.Func { return t.fn }

// IsPostDom reports whether this is a post-dominator tree.
func (t *Tree) IsPostDom() bool { return t.post }

// index returns b's slot in the tree's tables, or -1 when b has none.
func (t *Tree) index(b *ir.Block) int {
	if b == nil || b.Fn != t.fn || uint(b.Index) >= uint(len(t.reach)) {
		return -1
	}
	return b.Index
}

// Reachable reports whether b is reachable from the entry under the filter
// the tree was built with. Unreachable blocks are "speculatively dead" when
// the filter encodes control speculation.
func (t *Tree) Reachable(b *ir.Block) bool {
	i := t.index(b)
	return i >= 0 && t.reach[i]
}

// IDom returns the immediate dominator of b (nil for roots and
// unreachable blocks).
func (t *Tree) IDom(b *ir.Block) *ir.Block {
	if i := t.index(b); i >= 0 {
		return t.idom[i]
	}
	return nil
}

// Children returns the blocks immediately dominated by b.
func (t *Tree) Children(b *ir.Block) []*ir.Block {
	if i := t.index(b); i >= 0 {
		return t.kids[i]
	}
	return nil
}

// Roots returns the root blocks of the tree (the entry block for a
// dominator tree; the reachable return blocks for a post-dominator tree).
func (t *Tree) Roots() []*ir.Block { return t.roots }

// Dominates reports whether a dominates b (or post-dominates, for a
// post-dominator tree). A block dominates itself. Returns false when
// either block is unreachable.
func (t *Tree) Dominates(a, b *ir.Block) bool {
	i, j := t.index(a), t.index(b)
	if i < 0 || j < 0 || !t.reach[i] || !t.reach[j] {
		return false
	}
	return t.in[i] <= t.in[j] && t.out[j] <= t.out[i]
}

// InstrIndex returns the position of in within its block.
func InstrIndex(in *ir.Instr) int {
	for i, x := range in.Blk.Instrs {
		if x == in {
			return i
		}
	}
	return -1
}

// DominatesInstr reports instruction-level dominance: every path from the
// entry to i2 passes through i1 first. For a post-dominator tree it reports
// that every path from i2 to the exit passes through i1.
func (t *Tree) DominatesInstr(i1, i2 *ir.Instr) bool {
	if i1.Blk == i2.Blk {
		if !t.Reachable(i1.Blk) {
			return false
		}
		if t.post {
			return InstrIndex(i1) >= InstrIndex(i2)
		}
		return InstrIndex(i1) <= InstrIndex(i2)
	}
	return t.Dominates(i1.Blk, i2.Blk)
}

// Dominators computes the dominator tree of f under filter using the
// iterative Cooper–Harvey–Kennedy algorithm.
func Dominators(f *ir.Func, filter EdgeFilter) *Tree {
	return build(f, filter, false)
}

// PostDominators computes the post-dominator tree of f under filter. All
// reachable return blocks are attached to a virtual exit, so functions with
// multiple returns are handled uniformly.
func PostDominators(f *ir.Func, filter EdgeFilter) *Tree {
	return build(f, filter, true)
}

// reachable reports, by Block.Index, which blocks are reachable from the
// entry under the filter.
func reachable(f *ir.Func, filter EdgeFilter) []bool {
	reach := make([]bool, len(f.Blocks))
	entry := f.Entry()
	if entry == nil {
		return reach
	}
	stack := []*ir.Block{entry}
	reach[entry.Index] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if filter != nil && !filter(b, s) {
				continue
			}
			if !reach[s.Index] {
				reach[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	return reach
}

// build constructs the (post-)dominator tree on an integer graph with a
// virtual root at index 0.
func build(f *ir.Func, filter EdgeFilter, post bool) *Tree {
	reach := reachable(f, filter)

	// Number reachable blocks from 1; 0 is the virtual root. index maps
	// Block.Index to that number (0 for unreachable blocks).
	var nodes []*ir.Block
	index := make([]int, len(f.Blocks))
	for _, b := range f.Blocks {
		if reach[b.Index] {
			index[b.Index] = len(nodes) + 1
			nodes = append(nodes, b)
		}
	}
	n := len(nodes) + 1
	succs := make([][]int, n)
	preds := make([][]int, n)
	addEdge := func(u, v int) {
		succs[u] = append(succs[u], v)
		preds[v] = append(preds[v], u)
	}
	if !post {
		if e := f.Entry(); e != nil && reach[e.Index] {
			addEdge(0, index[e.Index])
		}
		for _, b := range nodes {
			for _, s := range b.Succs {
				if reach[s.Index] && (filter == nil || filter(b, s)) {
					addEdge(index[b.Index], index[s.Index])
				}
			}
		}
	} else {
		for _, b := range nodes {
			if t := b.Term(); t != nil && t.Op == ir.OpRet {
				addEdge(0, index[b.Index])
			}
		}
		for _, b := range nodes {
			for _, s := range b.Succs {
				if reach[s.Index] && (filter == nil || filter(b, s)) {
					addEdge(index[s.Index], index[b.Index]) // reversed
				}
			}
		}
	}

	// Reverse postorder over the integer graph from the virtual root.
	rpo := make([]int, 0, n)
	mark := make([]bool, n)
	var dfs func(u int)
	dfs = func(u int) {
		mark[u] = true
		for _, v := range succs[u] {
			if !mark[v] {
				dfs(v)
			}
		}
		rpo = append(rpo, u)
	}
	dfs(0)
	for i, j := 0, len(rpo)-1; i < j; i, j = i+1, j-1 {
		rpo[i], rpo[j] = rpo[j], rpo[i]
	}
	order := make([]int, n)
	for i := range order {
		order[i] = -1
	}
	for i, u := range rpo {
		order[u] = i
	}

	// Iterative idom computation (Cooper, Harvey, Kennedy).
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0
	intersect := func(a, b int) int {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, u := range rpo {
			if u == 0 {
				continue
			}
			newIdom := -1
			for _, p := range preds[u] {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[u] != newIdom {
				idom[u] = newIdom
				changed = true
			}
		}
	}

	nb := len(f.Blocks)
	t := &Tree{
		fn:    f,
		post:  post,
		idom:  make([]*ir.Block, nb),
		reach: reach,
		in:    make([]int32, nb),
		out:   make([]int32, nb),
		kids:  make([][]*ir.Block, nb),
	}
	childIdx := make([][]int, n)
	for u := 1; u < n; u++ {
		if idom[u] < 0 || order[u] < 0 {
			continue // dead in the analysis direction (e.g. infinite loop under postdom)
		}
		childIdx[idom[u]] = append(childIdx[idom[u]], u)
		b := nodes[u-1]
		if idom[u] == 0 {
			t.roots = append(t.roots, b)
		} else {
			p := nodes[idom[u]-1]
			t.idom[b.Index] = p
			t.kids[p.Index] = append(t.kids[p.Index], b)
		}
	}
	// Blocks reachable in the CFG but not reached in the analysis direction
	// (for postdom: blocks that cannot reach any return) are treated as
	// unreachable by dominance queries.
	for _, b := range nodes {
		if order[index[b.Index]] < 0 {
			reach[b.Index] = false
		}
	}

	// Euler tour for O(1) dominance queries.
	var clock int32
	var tour func(u int)
	tour = func(u int) {
		if u != 0 {
			t.in[nodes[u-1].Index] = clock
		}
		clock++
		for _, v := range childIdx[u] {
			tour(v)
		}
		if u != 0 {
			t.out[nodes[u-1].Index] = clock
		}
		clock++
	}
	tour(0)
	return t
}

// Frontiers computes dominance frontiers for a dominator tree (used by the
// SSA construction pass).
func Frontiers(t *Tree) map[*ir.Block][]*ir.Block {
	df := map[*ir.Block][]*ir.Block{}
	for _, b := range t.fn.Blocks {
		if !t.Reachable(b) || len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			if !t.Reachable(p) {
				continue
			}
			runner := p
			for runner != nil && runner != t.IDom(b) && !contains(df[runner], b) {
				df[runner] = append(df[runner], b)
				runner = t.IDom(runner)
			}
			// Stop condition subtlety: the loop above must stop at idom(b);
			// when runner becomes nil (a root) we are done too.
		}
	}
	for _, l := range df {
		sort.Slice(l, func(i, j int) bool { return l[i].Index < l[j].Index })
	}
	return df
}

func contains(l []*ir.Block, b *ir.Block) bool {
	for _, x := range l {
		if x == b {
			return true
		}
	}
	return false
}
