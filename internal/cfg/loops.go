package cfg

import (
	"sort"

	"scaf/internal/ir"
)

// Loop is a natural loop: the set of blocks that can reach a back edge
// u→header without passing through the header.
type Loop struct {
	ID     int
	Fn     *ir.Func
	Header *ir.Block
	// Blocks is the loop body. It is read-only once Loops returns:
	// Contains answers from a dense copy made there.
	Blocks   map[*ir.Block]bool
	Latches  []*ir.Block // in-loop sources of back edges to Header
	Exits    []*ir.Block // out-of-loop targets of edges leaving the loop
	Parent   *Loop
	Children []*Loop
	Depth    int // 1 for top-level loops

	// member is Blocks indexed by Block.Index: the membership test path
	// searches and analysis modules make on every query.
	member []bool
	// name is Name's answer, made once by Loops: the server keys every
	// analyze and query by it.
	name string
}

// Name returns a stable human-readable identifier, e.g. "main/body.3".
func (l *Loop) Name() string {
	if l.name != "" {
		return l.name
	}
	return loopName(l.Fn, l.Header) // a Loop built outside Loops
}

func loopName(f *ir.Func, header *ir.Block) string {
	return string(header.AppendName(append([]byte(f.Name), '/')))
}

// Contains reports whether block b belongs to the loop.
func (l *Loop) Contains(b *ir.Block) bool {
	return b != nil && b.Fn == l.Fn && uint(b.Index) < uint(len(l.member)) && l.member[b.Index]
}

// ContainsInstr reports whether instruction in belongs to the loop.
func (l *Loop) ContainsInstr(in *ir.Instr) bool { return l.Contains(in.Blk) }

// MemOps returns the loop's memory-accessing instructions in block order.
func (l *Loop) MemOps() []*ir.Instr {
	var out []*ir.Instr
	for _, b := range l.Fn.Blocks {
		if !l.Contains(b) {
			continue
		}
		for _, in := range b.Instrs {
			if in.AccessesMemory() {
				out = append(out, in)
			}
		}
	}
	return out
}

// Forest is the loop nest of one function.
type Forest struct {
	Fn        *ir.Func
	Top       []*Loop
	All       []*Loop
	ByHeader  map[*ir.Block]*Loop
	Innermost map[*ir.Block]*Loop
}

// LoopOf returns the innermost loop containing b, or nil.
func (f *Forest) LoopOf(b *ir.Block) *Loop { return f.Innermost[b] }

// Loops computes the natural-loop forest of f using dominator tree dt
// (which must be a plain, unfiltered dominator tree of f).
func Loops(f *ir.Func, dt *Tree) *Forest {
	forest := &Forest{
		Fn:        f,
		ByHeader:  map[*ir.Block]*Loop{},
		Innermost: map[*ir.Block]*Loop{},
	}
	// Find back edges; group by header.
	for _, b := range f.Blocks {
		if !dt.Reachable(b) {
			continue
		}
		for _, s := range b.Succs {
			if dt.Dominates(s, b) { // back edge b->s
				l := forest.ByHeader[s]
				if l == nil {
					l = &Loop{
						ID:     len(forest.All),
						Fn:     f,
						Header: s,
						Blocks: map[*ir.Block]bool{s: true},
						name:   loopName(f, s),
					}
					forest.ByHeader[s] = l
					forest.All = append(forest.All, l)
				}
				l.Latches = append(l.Latches, b)
				// Backward walk from the latch to collect the body.
				stack := []*ir.Block{b}
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if l.Blocks[x] {
						continue
					}
					l.Blocks[x] = true
					for _, p := range x.Preds {
						if dt.Reachable(p) && !l.Blocks[p] {
							stack = append(stack, p)
						}
					}
				}
			}
		}
	}

	// Exits, and the dense membership set.
	for _, l := range forest.All {
		l.member = make([]bool, len(f.Blocks))
		for b := range l.Blocks {
			l.member[b.Index] = true
		}
		seen := map[*ir.Block]bool{}
		for b := range l.Blocks {
			for _, s := range b.Succs {
				if !l.Blocks[s] && !seen[s] {
					seen[s] = true
					l.Exits = append(l.Exits, s)
				}
			}
		}
		sort.Slice(l.Exits, func(i, j int) bool { return l.Exits[i].Index < l.Exits[j].Index })
	}

	// Nesting: sort by body size ascending; parent = smallest strictly
	// larger loop containing the header.
	bySize := append([]*Loop(nil), forest.All...)
	sort.Slice(bySize, func(i, j int) bool {
		if len(bySize[i].Blocks) != len(bySize[j].Blocks) {
			return len(bySize[i].Blocks) < len(bySize[j].Blocks)
		}
		return bySize[i].Header.Index < bySize[j].Header.Index
	})
	for i, l := range bySize {
		for j := i + 1; j < len(bySize); j++ {
			cand := bySize[j]
			if cand != l && cand.Blocks[l.Header] && len(cand.Blocks) > len(l.Blocks) {
				l.Parent = cand
				cand.Children = append(cand.Children, l)
				break
			}
		}
		if l.Parent == nil {
			forest.Top = append(forest.Top, l)
		}
	}
	var setDepth func(l *Loop, d int)
	setDepth = func(l *Loop, d int) {
		l.Depth = d
		for _, c := range l.Children {
			setDepth(c, d+1)
		}
	}
	for _, l := range forest.Top {
		setDepth(l, 1)
	}
	// Innermost membership: assign from outermost to innermost so inner
	// loops overwrite outer ones.
	var assign func(l *Loop)
	assign = func(l *Loop) {
		for b := range l.Blocks {
			forest.Innermost[b] = l
		}
		for _, c := range l.Children {
			assign(c)
		}
	}
	for _, l := range forest.Top {
		assign(l)
	}
	sort.Slice(forest.Top, func(i, j int) bool { return forest.Top[i].Header.Index < forest.Top[j].Header.Index })
	return forest
}

// IsBackEdge reports whether from→to is a back edge w.r.t. dt.
func IsBackEdge(dt *Tree, from, to *ir.Block) bool {
	return dt.Dominates(to, from)
}
