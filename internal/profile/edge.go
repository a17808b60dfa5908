package profile

import (
	"scaf/internal/cfg"
	"scaf/internal/interp"
	"scaf/internal/ir"
)

// EdgeKey identifies a CFG edge.
type EdgeKey struct{ From, To *ir.Block }

// EdgeProfile counts block executions and edge traversals — the profile
// control speculation consumes (paper: never-executed blocks are the
// speculatively dead ones). BlockCount and EdgeCount are complete once
// Finish has run.
type EdgeProfile struct {
	interp.BaseObserver
	BlockCount map[*ir.Block]int64
	EdgeCount  map[EdgeKey]int64
	mod        *ir.Module

	// During the run, each function counts its edges in a dense table,
	// two slots per block (one per successor position), that Finish
	// folds into the maps.
	fn     *ir.Func
	counts []int64
	byFn   map[*ir.Func][]int64
}

// NewEdgeProfile creates an empty edge profiler for module m.
func NewEdgeProfile(m *ir.Module) *EdgeProfile {
	return &EdgeProfile{
		BlockCount: map[*ir.Block]int64{},
		EdgeCount:  map[EdgeKey]int64{},
		mod:        m,
	}
}

// Events implements interp.Selective.
func (p *EdgeProfile) Events() interp.Event { return interp.EdgeEvent | interp.CallEvent }

func (p *EdgeProfile) Edge(fn *ir.Func, from, to *ir.Block) {
	if fn != p.fn {
		if p.byFn[fn] == nil {
			if p.byFn == nil {
				p.byFn = map[*ir.Func][]int64{}
			}
			p.byFn[fn] = make([]int64, 2*len(fn.Blocks))
		}
		p.fn, p.counts = fn, p.byFn[fn]
	}
	i := 2 * from.Index
	for k := 0; k < 2 && k < len(from.Succs) && i+k < len(p.counts); k++ {
		if from.Succs[k] == to {
			p.counts[i+k]++
			return
		}
	}
	p.BlockCount[to]++
	p.EdgeCount[EdgeKey{from, to}]++
}

func (p *EdgeProfile) Call(site *ir.Instr, callee *ir.Func) {
	p.BlockCount[callee.Entry()]++
}

// Finish folds the run's edge tables into BlockCount and EdgeCount, and
// accounts for main's entry block, which no edge or call reaches.
func (p *EdgeProfile) Finish() {
	for fn, counts := range p.byFn {
		for i, n := range counts {
			if n == 0 {
				continue
			}
			from := fn.Blocks[i/2]
			to := from.Succs[i%2]
			p.BlockCount[to] += n
			p.EdgeCount[EdgeKey{from, to}] += n
		}
	}
	p.fn, p.counts, p.byFn = nil, nil, nil
	if main := p.mod.FuncNamed("main"); main != nil {
		p.BlockCount[main.Entry()]++
	}
}

// Executed reports whether block b ran at least once during profiling.
func (p *EdgeProfile) Executed(b *ir.Block) bool { return p.BlockCount[b] > 0 }

// EdgeTaken reports whether the edge from→to was ever traversed.
func (p *EdgeProfile) EdgeTaken(from, to *ir.Block) bool {
	return p.EdgeCount[EdgeKey{from, to}] > 0
}

// SpecDead reports whether b is speculatively dead: never executed during
// profiling although its function ran. Functions that never ran at all
// provide no evidence, so their blocks are not considered spec-dead.
func (p *EdgeProfile) SpecDead(b *ir.Block) bool {
	return p.BlockCount[b] == 0 && p.BlockCount[b.Fn.Entry()] > 0
}

// BiasedEdges returns, for function fn, the set of CFG edges that were
// never traversed although their source block executed. These are the
// edges control speculation removes; the guarding branch is the source's
// terminator.
func (p *EdgeProfile) BiasedEdges(fn *ir.Func) []EdgeKey {
	var out []EdgeKey
	for _, b := range fn.Blocks {
		if p.BlockCount[b] == 0 || len(b.Succs) < 2 {
			continue
		}
		for _, s := range b.Succs {
			if !p.EdgeTaken(b, s) {
				out = append(out, EdgeKey{b, s})
			}
		}
	}
	return out
}

// LoopStat summarizes one loop's dynamic behaviour.
type LoopStat struct {
	Loop        *cfg.Loop
	Invocations int64
	HeaderExecs int64
	// Weight is the dynamic instruction count attributed to the loop's own
	// blocks (nested loops included, callees excluded).
	Weight int64
}

// AvgIters returns the average iteration count per invocation.
func (s *LoopStat) AvgIters() float64 {
	if s.Invocations == 0 {
		return 0
	}
	// The header executes once per iteration plus once for the final exit
	// test on each invocation.
	v := float64(s.HeaderExecs)/float64(s.Invocations) - 1
	if v < 0 {
		return 0
	}
	return v
}

// LoopStats derives per-loop statistics from the counts.
func (p *EdgeProfile) LoopStats(prog *cfg.Program) map[*cfg.Loop]*LoopStat {
	out := map[*cfg.Loop]*LoopStat{}
	for _, l := range prog.AllLoops() {
		st := &LoopStat{Loop: l, HeaderExecs: p.BlockCount[l.Header]}
		for _, pred := range l.Header.Preds {
			if !l.Contains(pred) {
				st.Invocations += p.EdgeCount[EdgeKey{pred, l.Header}]
			}
		}
		for b := range l.Blocks {
			st.Weight += p.BlockCount[b] * int64(len(b.Instrs))
		}
		out[l] = st
	}
	return out
}
