package analysis

import (
	"scaf/internal/cfg"
	"scaf/internal/core"
	"scaf/internal/ir"
)

// KillFlow disproves dependences by finding an intervening store that
// fully overwrites the queried footprint on every relevant path (the
// no-kill condition of §2.1). It is a factored module: the "does the
// killing store cover the footprint?" proposition becomes a premise alias
// query with a MustAlias desired result, answerable by any module in the
// ensemble — including speculation modules.
//
// All path feasibility is judged against the dominator tree carried by
// the query: when control speculation substitutes speculative trees,
// blocks that are speculatively dead simply disappear from the path
// searches, which is exactly how the paper's motivating example resolves
// (Fig. 5/6).
type KillFlow struct {
	core.BaseModule
	prog   *cfg.Program
	stores map[*cfg.Loop][]*ir.Instr
	// rs is the module's reusable path-search scratch. Modules are
	// per-orchestrator and evaluated on one goroutine; path searches never
	// nest (premise queries happen after a search concludes), so one
	// scratch per module is safe.
	rs reachScratch
}

// NewKillFlow constructs the module, indexing each loop's stores.
func NewKillFlow(prog *cfg.Program) *KillFlow {
	k := &KillFlow{prog: prog, stores: map[*cfg.Loop][]*ir.Instr{}}
	for _, l := range prog.AllLoops() {
		for _, in := range l.MemOps() {
			if in.Op == ir.OpStore {
				k.stores[l] = append(k.stores[l], in)
			}
		}
	}
	return k
}

func (m *KillFlow) Name() string          { return "kill-flow" }
func (m *KillFlow) Kind() core.ModuleKind { return core.MemoryAnalysis }

// live reports whether b is feasible under the query's control-flow view.
func live(dt *cfg.Tree, b *ir.Block) bool {
	return dt == nil || dt.Reachable(b)
}

// reachScratch holds the reusable state of the path searches below: the
// visited set, the worklist, and the start frontier. One search runs at a
// time per module (searches conclude before any premise query fires), so
// resetting at entry is enough.
//
// The visited set is a stamp per Block.Index: a block is visited by the
// current search when its stamp equals epoch, so starting a search is one
// increment instead of clearing a set.
type reachScratch struct {
	stamp    []uint32
	epoch    uint32
	queue    []*ir.Block
	frontier []*ir.Block
}

// begin starts a search over the blocks of fn with an empty visited set.
func (rs *reachScratch) begin(fn *ir.Func) {
	if n := len(fn.Blocks); len(rs.stamp) < n {
		rs.stamp = make([]uint32, n)
		rs.epoch = 0
	}
	rs.epoch++
	if rs.epoch == 0 { // wrapped: stamps from 2^32 searches ago would read as visited
		clear(rs.stamp)
		rs.epoch = 1
	}
}

// visit marks b visited and reports whether it was unvisited before.
func (rs *reachScratch) visit(b *ir.Block) bool {
	if rs.stamp[b.Index] == rs.epoch {
		return false
	}
	rs.stamp[b.Index] = rs.epoch
	return true
}

// blockIn reports membership in a (tiny) block list.
func blockIn(bs []*ir.Block, b *ir.Block) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}

// reaches performs a path search within loop l (inner-loop cycles allowed,
// re-entering l's header forbidden — that would start a new iteration),
// avoiding block `avoid`, over blocks live under dt. start is a frontier
// of blocks to begin from (already "entered"). The search hits when it
// lands on target (if non-nil) or on any of latches.
func (rs *reachScratch) reaches(l *cfg.Loop, dt *cfg.Tree, start []*ir.Block, avoid, target *ir.Block, latches []*ir.Block) bool {
	rs.begin(l.Fn)
	rs.queue = append(rs.queue[:0], start...)
	for _, b := range rs.queue {
		rs.visit(b)
	}
	for len(rs.queue) > 0 {
		b := rs.queue[len(rs.queue)-1]
		rs.queue = rs.queue[:len(rs.queue)-1]
		if b == avoid || !l.Contains(b) || !live(dt, b) {
			continue
		}
		if b == target || blockIn(latches, b) {
			return true
		}
		for _, s := range b.Succs {
			if s != l.Header && rs.visit(s) {
				rs.queue = append(rs.queue, s)
			}
		}
	}
	return false
}

// succFrontier fills the scratch frontier with i's block successors minus
// the loop header (entering the header would start a new iteration).
func (rs *reachScratch) succFrontier(l *cfg.Loop, i *ir.Instr) []*ir.Block {
	rs.frontier = rs.frontier[:0]
	for _, sc := range i.Blk.Succs {
		if sc != l.Header {
			rs.frontier = append(rs.frontier, sc)
		}
	}
	return rs.frontier
}

// killsDestSide reports whether store s overwrites the footprint read or
// written by i2 on every path from the iteration start (header) to i2.
func (rs *reachScratch) killsDestSide(l *cfg.Loop, dt *cfg.Tree, s, i2 *ir.Instr) bool {
	idxS := cfg.InstrIndex(s)
	if s.Blk == i2.Blk {
		return idxS < cfg.InstrIndex(i2)
	}
	if s.Blk == l.Header {
		// The header is the mandatory first block of every iteration and
		// executes s before control leaves it.
		return i2.Blk != l.Header
	}
	// Does any header→i2 path avoid s's block?
	rs.frontier = append(rs.frontier[:0], l.Header)
	return !rs.reaches(l, dt, rs.frontier, s.Blk, i2.Blk, nil)
}

// killsSourceSide reports whether store s overwrites i1's footprint on
// every intra-iteration path from i1 to the loop's back edges — or whether
// no such path exists at all (the loop cannot continue after i1).
func (rs *reachScratch) killsSourceSide(l *cfg.Loop, dt *cfg.Tree, s, i1 *ir.Instr) bool {
	if s.Blk == i1.Blk && cfg.InstrIndex(s) > cfg.InstrIndex(i1) {
		return true // straight-line rest of the block passes s
	}
	if blockIn(l.Latches, i1.Blk) {
		return false // i1's own block can take the back edge immediately
	}
	// A latch reached while avoiding s means the flow survives into the
	// next iteration. Starting frontier: successors of i1's block (the
	// tail of i1's own block contains no s here).
	return !rs.reaches(l, dt, rs.succFrontier(l, i1), s.Blk, nil, l.Latches)
}

// killsIntra reports whether s lies on every intra-iteration path from i1
// to i2.
func (rs *reachScratch) killsIntra(l *cfg.Loop, dt *cfg.Tree, s, i1, i2 *ir.Instr) bool {
	idxS, idx1, idx2 := cfg.InstrIndex(s), cfg.InstrIndex(i1), cfg.InstrIndex(i2)
	if i1.Blk == i2.Blk && idx1 < idx2 {
		// The straight-line path is always possible; s must sit between.
		return s.Blk == i1.Blk && idxS > idx1 && idxS < idx2
	}
	if s.Blk == i1.Blk && idxS > idx1 {
		return true
	}
	if s.Blk == i2.Blk && idxS < idx2 && i1.Blk != i2.Blk {
		return true
	}
	if s.Blk == i2.Blk && idxS > idx2 {
		// Any path entering i2's block reaches i2 before s: no kill, and
		// the block-avoiding search below must not pretend otherwise.
		return false
	}
	return !rs.reaches(l, dt, rs.succFrontier(l, i1), s.Blk, i2.Blk, nil)
}

// covers asks the ensemble whether store s's footprint fully covers loc
// (same iteration). The desired-result parameter lets base modules bail
// out unless they can produce MustAlias (§3.2.2).
func (m *KillFlow) covers(q *core.ModRefQuery, loc core.MemLoc, s *ir.Instr, h core.Handle) (core.ModRefResponse, bool) {
	sp, ssz, _ := s.PointerOperand()
	pr := h.PremiseAlias(&core.AliasQuery{
		L1: loc, L2: core.MemLoc{Ptr: sp, Size: ssz},
		Rel: core.Same, Loop: q.Loop, Ctx: q.Ctx,
		Desired: core.WantMustAlias,
		DT:      q.DT, PDT: q.PDT,
	})
	covered := false
	switch pr.Result {
	case core.MustAlias:
		covered = loc.Size != core.UnknownSize && loc.Size <= ssz
	case core.SubAlias:
		covered = true // loc fully contained in s's footprint
	}
	if !covered {
		return core.ModRefResponse{}, false
	}
	return core.ModRefResponse{
		Result:   core.NoModRef,
		Options:  pr.Options,
		Contribs: core.MergeContribs(core.ContribsOf(m.Name()), pr.Contribs),
	}, true
}

func (m *KillFlow) ModRef(q *core.ModRefQuery, h core.Handle) core.ModRefResponse {
	if q.Loop == nil || q.I1 == nil {
		return core.ModRefConservative()
	}
	if !q.Loop.ContainsInstr(q.I1) || (q.I2 != nil && !q.Loop.ContainsInstr(q.I2)) {
		return core.ModRefConservative()
	}
	if q.Rel == core.After {
		// Dependences are queried source-first; After queries are rare and
		// symmetric, skip.
		return core.ModRefConservative()
	}

	fp2, have2 := q.TargetLoc()
	fp1 := core.MemLoc{Size: core.UnknownSize}
	have1 := false
	if p1, s1, ok := q.I1.PointerOperand(); ok {
		fp1 = core.MemLoc{Ptr: p1, Size: s1}
		have1 = true
	}

	for _, s := range m.stores[q.Loop] {
		if s == q.I2 || !live(q.DT, s.Blk) {
			continue
		}
		// Cheap position tests first; the premise query only fires for
		// geometrically plausible kills.
		if q.Rel == core.Before {
			// Note s == I1 is a valid destination-side killer: if the
			// store re-executes every iteration before I2, iteration j's
			// execution kills the value left by iteration i < j.
			if q.I2 != nil && have2 && m.rs.killsDestSide(q.Loop, q.DT, s, q.I2) {
				if r, ok := m.covers(q, fp2, s, h); ok {
					return r
				}
			}
			if s != q.I1 && have1 && m.rs.killsSourceSide(q.Loop, q.DT, s, q.I1) {
				if r, ok := m.covers(q, fp1, s, h); ok {
					return r
				}
			}
		} else if s != q.I1 { // Same
			if q.I2 != nil && have2 && m.rs.killsIntra(q.Loop, q.DT, s, q.I1, q.I2) {
				if r, ok := m.covers(q, fp2, s, h); ok {
					return r
				}
			}
		}
	}

	// No store needed: if no intra-iteration path from I1 ever reaches a
	// latch, I1 ends its activation and cross-iteration dependences out of
	// I1 are impossible.
	if q.Rel == core.Before && !blockIn(q.Loop.Latches, q.I1.Blk) {
		if !m.rs.reaches(q.Loop, q.DT, m.rs.succFrontier(q.Loop, q.I1), nil, nil, q.Loop.Latches) {
			return core.ModRefFact(core.NoModRef, m.Name())
		}
	}
	return core.ModRefConservative()
}
