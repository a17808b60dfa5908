// Package runtime closes the paper's loop from analysis to execution: it
// takes the PDG client's speculation plans and actually runs the program
// that way. Loops the plan marks DOALL have their iterations partitioned
// into chunks executed by worker goroutines, each against a journaled
// view of memory (interp.View); at commit time the journals are validated
// against exactly what the plan speculated — no cross-iteration write/
// write or write/read overlap the analysis did not admit. A clean
// invocation commits chunk journals in iteration order, so the result is
// byte-identical to serial execution. A dirty one aborts the offending
// chunk and everything after it, quarantines the assertions the denied
// dependence rode on (recovery.Quarantine + core.SharedCache
// invalidation), re-plans, and re-executes the losing range serially —
// the misspeculation recovery the paper's clients pay for.
package runtime

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"scaf/internal/cfg"
	"scaf/internal/core"
	"scaf/internal/interp"
	"scaf/internal/ir"
	"scaf/internal/pdg"
	"scaf/internal/recovery"
)

// LoopPlan pairs one hot loop's dependence queries with the validation
// plan built over them.
type LoopPlan struct {
	Loop *cfg.Loop
	Res  *pdg.LoopResult
	Plan *pdg.Plan
}

// Config configures an execution.
type Config struct {
	// Workers is the number of chunks a speculated invocation is split
	// into (and the goroutines that run them). Default 4.
	Workers int
	// MinIters declines speculation for invocations with fewer
	// iterations than this. Default 2×Workers.
	MinIters int64
	// MaxSteps bounds the top-level interpreter (0: interp default).
	// Each speculative chunk gets the same budget independently.
	MaxSteps int64
	// Quarantine receives assertions disproved by a misspeculation.
	Quarantine *recovery.Quarantine
	// Cache, when set, has entries predicated on newly quarantined
	// assertions invalidated at the abort point.
	Cache *core.SharedCache
	// Replan re-analyzes the hot loops after the quarantine grows and
	// returns fresh plans; nil drops speculation for the violated loop.
	Replan func() []LoopPlan

	// disableCommitGuard skips commit-time validation, publishing every
	// chunk journal unchecked. Test-only: the abort-guard regression test
	// sets it to prove aborted ranges would otherwise corrupt the result.
	disableCommitGuard bool
}

// LoopStats are the per-loop deterministic counters. They depend only on
// the program, the plans, and Config — never on goroutine timing — so the
// bench-regression gate can compare them exactly.
type LoopStats struct {
	Loop string `json:"loop"`
	// Refusal is why the loop is not (or no longer) speculated: a shape
	// reason, "not DOALL under plan", or a disable after an
	// unattributable abort. Empty for speculated loops.
	Refusal string `json:"refusal,omitempty"`
	// Invocations counts loop entries seen by the hook; SpecInvocations
	// the subset executed speculatively (trip count large enough).
	Invocations     int64 `json:"invocations"`
	SpecInvocations int64 `json:"spec_invocations"`
	Chunks          int64 `json:"chunks"`
	CommittedChunks int64 `json:"committed_chunks"`
	AbortedChunks   int64 `json:"aborted_chunks"`
	// SpecIters counts iterations whose speculative results committed;
	// SerialIters iterations re-executed serially after an abort.
	SpecIters   int64 `json:"spec_iters"`
	SerialIters int64 `json:"serial_iters"`
	// Misspecs counts aborted invocations (the misspeculation events).
	Misspecs int64 `json:"misspecs"`
}

// Report is the outcome of one speculative execution.
type Report struct {
	Output    []string    `json:"-"`
	Steps     int64       `json:"steps"`
	MemDigest uint64      `json:"mem_digest"`
	Loops     []LoopStats `json:"loops,omitempty"`

	DoallLoops      int   `json:"doall_loops"`
	RefusedLoops    int   `json:"refused_loops"`
	SpecInvocations int64 `json:"spec_invocations"`
	Chunks          int64 `json:"chunks"`
	CommittedChunks int64 `json:"committed_chunks"`
	AbortedChunks   int64 `json:"aborted_chunks"`
	SpecIters       int64 `json:"spec_iters"`
	SerialIters     int64 `json:"serial_iters"`
	Misspecs        int64 `json:"misspecs"`
	ReplanRounds    int64 `json:"replan_rounds"`
	// QuarantinedAsserts lists the assertion keys withdrawn during the
	// run, sorted.
	QuarantinedAsserts []string `json:"quarantined_asserts,omitempty"`
	// WallNanos is wall-clock time — NOT deterministic, excluded from
	// regression gates.
	WallNanos int64 `json:"wall_nanos"`
}

// specLoop is one loop the executor is currently willing to speculate.
type specLoop struct {
	shape *Shape
	byKey map[pdg.Key]*pdg.Query
	plan  *pdg.Plan
	stats *LoopStats
}

type executor struct {
	cfg          Config
	byHeader     map[*ir.Block]*specLoop
	stats        map[string]*LoopStats
	disabled     map[string]bool
	replanRounds int64
}

// doall reports whether the plan discharges every cross-iteration
// dependence query of the loop.
func doall(res *pdg.LoopResult, plan *pdg.Plan) bool {
	for i := range res.Queries {
		q := &res.Queries[i]
		if q.Rel != core.Before {
			continue
		}
		if !plan.Covers(q) {
			return false
		}
	}
	return true
}

// Execute runs prog's main under the speculative executor.
func Execute(prog *cfg.Program, plans []LoopPlan, cfg Config) (*Report, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MinIters <= 0 {
		cfg.MinIters = int64(2 * cfg.Workers)
	}
	ex := &executor{cfg: cfg, stats: map[string]*LoopStats{}, disabled: map[string]bool{}}
	ex.install(plans)
	start := time.Now()
	res, err := interp.Run(prog.Mod, interp.Options{MaxSteps: cfg.MaxSteps, Hook: ex.hook})
	if err != nil {
		return nil, err
	}
	rep := ex.report(res)
	rep.WallNanos = time.Since(start).Nanoseconds()
	return rep, nil
}

func (ex *executor) statsFor(name string) *LoopStats {
	st := ex.stats[name]
	if st == nil {
		st = &LoopStats{Loop: name}
		ex.stats[name] = st
	}
	return st
}

// install (re)builds the speculation table from fresh plans, preserving
// accumulated stats.
func (ex *executor) install(plans []LoopPlan) {
	ex.byHeader = map[*ir.Block]*specLoop{}
	for _, lp := range plans {
		st := ex.statsFor(lp.Loop.Name())
		if ex.disabled[st.Loop] {
			st.Refusal = "disabled after unattributable abort"
			continue
		}
		shape, reason := Recognize(lp.Loop)
		if reason != "" {
			st.Refusal = "shape: " + reason
			continue
		}
		if !doall(lp.Res, lp.Plan) {
			st.Refusal = "not DOALL under plan"
			continue
		}
		st.Refusal = ""
		ex.byHeader[shape.Header] = &specLoop{
			shape: shape,
			byKey: lp.Res.ByKey(),
			plan:  lp.Plan,
			stats: st,
		}
	}
}

// hook intercepts entries into speculated loop headers from outside the
// loop (back edges and in-loop control flow pass through untouched).
func (ex *executor) hook(fr *interp.Frame, block, prev *ir.Block) (*ir.Block, *ir.Block, error) {
	sl := ex.byHeader[block]
	if sl == nil || prev == nil || sl.shape.Loop.Blocks[prev] {
		return nil, nil, nil
	}
	return ex.speculate(fr, sl, prev)
}

// chunkRun is one worker's slice of the iteration space.
type chunkRun struct {
	lo, hi int64
	view   *interp.View
	regs   []uint64
	out    []string
	steps  int64
	iters  int64
	err    error
}

// conflict is one validated cross-chunk dependence the plan denied.
type conflict struct {
	addr           uint64
	writer, reader *ir.Instr
	kind           string // "flow" or "output"
}

// speculate executes one invocation of sl speculatively, returning the
// (block, prev) pair execution resumes from. Declining (nil, nil, nil)
// falls back to ordinary serial interpretation of the whole loop.
func (ex *executor) speculate(fr *interp.Frame, sl *specLoop, prev *ir.Block) (*ir.Block, *ir.Block, error) {
	sh, st := sl.shape, sl.stats
	st.Invocations++

	initVal := ir.PhiIncoming(sh.Phi, prev)
	if initVal == nil {
		return nil, nil, nil
	}
	initRaw, err := fr.It.Eval(initVal, fr)
	if err != nil {
		return nil, nil, nil
	}
	boundRaw, err := fr.It.Eval(sh.Bound, fr)
	if err != nil {
		return nil, nil, nil
	}
	init, bound := int64(initRaw), int64(boundRaw)
	trip, ok := sh.Trip(init, bound)
	if !ok || trip < ex.cfg.MinIters {
		return nil, nil, nil
	}

	st.SpecInvocations++
	nch := ex.cfg.Workers
	if int64(nch) > trip {
		nch = int(trip)
	}
	parent := fr.It
	base := parent.Heap()

	runs := make([]*chunkRun, nch)
	var wg sync.WaitGroup
	for c := 0; c < nch; c++ {
		cr := &chunkRun{lo: trip * int64(c) / int64(nch), hi: trip * int64(c+1) / int64(nch)}
		runs[c] = cr
		wg.Add(1)
		go func(last bool) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					cr.err = fmt.Errorf("panic in speculative chunk: %v", r)
				}
			}()
			view := interp.NewView(base)
			fork := parent.Fork(view)
			regs := append([]uint64(nil), fr.Regs...)
			regs[sh.Next.ID] = uint64(sh.Ind(init, cr.lo))
			cfr := &interp.Frame{It: fork, Fn: fr.Fn, Regs: regs, Args: fr.Args, Depth: fr.Depth}
			want := cr.hi - cr.lo
			var done int64
			stop := func(from, to *ir.Block) bool {
				if from == sh.Header && to == sh.Exit {
					return true
				}
				if to == sh.Header && from == sh.Latch {
					done++
					if last {
						return done > want // runaway guard; trip was exact
					}
					return done >= want
				}
				return false
			}
			end, rerr := fork.RunRegion(cfr, sh.Header, sh.Latch, stop)
			cr.view, cr.regs, cr.out, cr.steps, cr.iters = view, regs, fork.Output(), fork.Steps(), done
			switch {
			case rerr != nil:
				cr.err = rerr
			case end.Returned:
				cr.err = fmt.Errorf("speculative region returned from %s", fr.Fn.Name)
			case !last && end.To == sh.Exit && done < want:
				cr.err = fmt.Errorf("early exit after %d of %d iterations", done, want)
			case last && (end.To != sh.Exit || done != want):
				cr.err = fmt.Errorf("final chunk stopped at %s after %d of %d iterations", end.To, done, want)
			}
		}(c == nch-1)
	}
	wg.Wait()

	// Validate in commit order: chunk k's journals against the write sets
	// of every chunk before it. The guard enforces exactly the
	// speculated independence — an exposed read (flow) or a write
	// (output) landing on a byte an earlier chunk wrote is a
	// cross-iteration dependence the plan denied.
	firstBad := nch
	var conflicts []conflict
	if ex.cfg.disableCommitGuard {
		for k := 0; k < nch; k++ {
			if runs[k].err != nil {
				firstBad = k
				break
			}
		}
	} else {
		prior := map[uint64]*ir.Instr{}
	scan:
		for k := 0; k < nch; k++ {
			cr := runs[k]
			if cr.err != nil {
				firstBad = k
				break
			}
			var cs []conflict
			for addr, reader := range cr.view.ExposedReads() {
				if w, ok := prior[addr]; ok {
					cs = append(cs, conflict{addr: addr, writer: w, reader: reader, kind: "flow"})
				}
			}
			for addr, writer := range cr.view.Writes() {
				if w, ok := prior[addr]; ok {
					cs = append(cs, conflict{addr: addr, writer: w, reader: writer, kind: "output"})
				}
			}
			if len(cs) > 0 {
				sort.Slice(cs, func(i, j int) bool {
					if cs[i].addr != cs[j].addr {
						return cs[i].addr < cs[j].addr
					}
					return cs[i].kind < cs[j].kind
				})
				conflicts, firstBad = cs, k
				break scan
			}
			for addr, writer := range cr.view.Writes() {
				prior[addr] = writer
			}
		}
	}

	// Commit the validated prefix in iteration order: journal bytes, then
	// the chunk's printed output and step count.
	st.Chunks += int64(nch)
	for k := 0; k < firstBad; k++ {
		cr := runs[k]
		if err := cr.view.CommitTo(base); err != nil {
			return nil, nil, fmt.Errorf("runtime: commit of %s chunk %d: %w", st.Loop, k, err)
		}
		parent.AppendOutput(cr.out)
		parent.AddSteps(cr.steps)
		st.CommittedChunks++
		st.SpecIters += cr.iters
	}

	if firstBad == nch {
		// Every chunk validated: the final chunk's registers are exactly
		// the serial post-loop register file (every value legally usable
		// after the loop is defined on the path through the final
		// iteration and the exiting header evaluation).
		copy(fr.Regs, runs[nch-1].regs)
		return sh.Exit, sh.Header, nil
	}

	// Misspeculation: quarantine what the denied dependence rode on,
	// invalidate predicated cache entries, re-plan, and re-execute the
	// losing range serially.
	st.Misspecs++
	st.AbortedChunks += int64(nch - firstBad)
	ex.recoverFrom(sl, runs[firstBad], conflicts)

	lo := runs[firstBad].lo
	fr.Regs[sh.Next.ID] = uint64(sh.Ind(init, lo))
	stop := func(from, to *ir.Block) bool { return from == sh.Header && to == sh.Exit }
	if _, err := parent.RunRegion(fr, sh.Header, sh.Latch, stop); err != nil {
		return nil, nil, err
	}
	st.SerialIters += trip - lo
	return sh.Exit, sh.Header, nil
}

// recoverFrom reports a misspeculation through the observe/quarantine
// path and refreshes the speculation table.
func (ex *executor) recoverFrom(sl *specLoop, bad *chunkRun, conflicts []conflict) {
	st := sl.stats
	var newKeys []string
	for _, c := range conflicts {
		detail := fmt.Sprintf("%s dependence observed at %#x (%s -> %s) in %s",
			c.kind, c.addr, c.writer, c.reader, st.Loop)
		for _, key := range []pdg.Key{
			{I1: c.writer, I2: c.reader, Rel: core.Before},
			{I1: c.reader, I2: c.writer, Rel: core.Before},
		} {
			q := sl.byKey[key]
			if q == nil {
				continue
			}
			for _, a := range sl.plan.Attribution(q) {
				k := a.String()
				if ex.cfg.Quarantine != nil && ex.cfg.Quarantine.AddAssert(k, detail) {
					newKeys = append(newKeys, k)
				}
			}
		}
	}
	sort.Strings(newKeys)
	if len(newKeys) > 0 && ex.cfg.Cache != nil {
		ex.cfg.Cache.InvalidateAsserts(newKeys)
	}
	if len(newKeys) > 0 && ex.cfg.Replan != nil {
		ex.replanRounds++
		ex.install(ex.cfg.Replan())
		return
	}
	// Nothing attributable was withdrawn (or no re-planner): stop
	// speculating this loop so repeated invocations cannot abort forever.
	ex.disabled[st.Loop] = true
	delete(ex.byHeader, sl.shape.Header)
	st.Refusal = "disabled after unattributable abort"
}

func (ex *executor) report(res *interp.Result) *Report {
	rep := &Report{Output: res.Output, Steps: res.Steps, MemDigest: res.Mem.Digest()}
	names := make([]string, 0, len(ex.stats))
	for n := range ex.stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := ex.stats[n]
		rep.Loops = append(rep.Loops, *st)
		if st.Refusal != "" {
			rep.RefusedLoops++
		} else {
			rep.DoallLoops++
		}
		rep.SpecInvocations += st.SpecInvocations
		rep.Chunks += st.Chunks
		rep.CommittedChunks += st.CommittedChunks
		rep.AbortedChunks += st.AbortedChunks
		rep.SpecIters += st.SpecIters
		rep.SerialIters += st.SerialIters
		rep.Misspecs += st.Misspecs
	}
	rep.ReplanRounds = ex.replanRounds
	if ex.cfg.Quarantine != nil {
		rep.QuarantinedAsserts = ex.cfg.Quarantine.AssertKeys()
	}
	return rep
}
