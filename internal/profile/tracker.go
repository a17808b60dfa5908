// Package profile implements the offline profilers that feed SCAF's
// speculation modules (paper §4.2.2): an edge profiler, a value-prediction
// profiler, a points-to profiler, an object-lifetime profiler, a
// pointer-residue profiler, and the loop-aware memory-dependence profiler
// used by the memory-speculation baseline. All of them observe executions
// of the interpreter.
package profile

import (
	"scaf/internal/cfg"
	"scaf/internal/interp"
	"scaf/internal/ir"
)

// LoopEntry is one activation of a loop on the tracker's stack.
type LoopEntry struct {
	Loop *cfg.Loop
	// Act is a globally unique activation (invocation) id.
	Act uint64
	// Iter counts iterations within this activation, starting at 0.
	Iter int64
	// liveObjs is used by the lifetime profiler: objects allocated in the
	// current iteration that have not been freed yet.
	liveObjs map[*interp.Object]bool
	// outer is the frame's shape before this entry was pushed, and again
	// after it is popped.
	outer uint64
}

// Frame mirrors one interpreter call frame.
type Frame struct {
	Fn *ir.Func
	// CallSite is the call instruction in THIS frame currently executing a
	// callee (set just before the Call event pushes the next frame).
	CallSite *ir.Instr
	loops    []*LoopEntry

	// forest is Fn's dense loop forest, looked up once per frame.
	forest *denseForest
	// shape identifies the set of loops active in this frame and every
	// frame below it: a new frame starts with its caller's, and each loop
	// push mints a new one that the matching pop gives back.
	shape uint64
	// saved is the tracker's snapshot while this frame calls out, when it
	// was current at the call; Return reinstates it.
	saved *loopSnapshot
	// ctx holds the call-site-chain suffix hashes leading to this frame,
	// looked up on first use.
	ctx *ctxSuffixes
}

// IterListener is notified at loop-iteration boundaries.
type IterListener interface {
	// IterEnd fires when an iteration of e completes (including the last
	// one, just before the loop exits or its frame unwinds).
	IterEnd(e *LoopEntry)
	// LoopExit fires when the activation e ends.
	LoopExit(e *LoopEntry)
}

// Tracker maintains the dynamic loop-nest/call-stack state all the
// loop-sensitive profilers share. It must be registered BEFORE any
// profiler that reads it, so its state is current when they observe the
// same event.
//
// The tracker keeps a version that changes on every loop push or pop,
// iteration advance, call and return, and builds the snapshot of the
// active loop tags at most once per version, so the profilers pay per
// change of loop state instead of per memory access. All of this state
// lives in the tracker, never on the ir or cfg objects, which sessions
// share with concurrent queries.
type Tracker struct {
	interp.BaseObserver
	prog    *cfg.Program
	frames  []*Frame
	nextAct uint64
	iterLis []IterListener

	ver        uint64
	snap       *loopSnapshot // current when snapVer == ver
	snapVer    uint64
	nextShape  uint64
	forests    map[*ir.Func]*denseForest
	ctxs       map[ctxChain]*ctxSuffixes
	snapChunk  []loopSnapshot
	tagChunk   []loopTag
	entryChunk []LoopEntry
	noLoops    loopSnapshot
	noCtx      ctxSuffixes
}

// loopTag is one active loop entry as an access sees it: rep is the
// instruction standing for the access in the entry's frame.
type loopTag struct {
	act  uint64
	iter int64
	loop *cfg.Loop
	rep  *ir.Instr
}

// loopSnapshot is an immutable copy of the active loop tags at one
// tracker version, outermost frame first. The top frame's tags come last,
// from index top on, with a nil rep: the accessing instruction supplies
// it.
type loopSnapshot struct {
	tags []loopTag
	top  int
}

// snapsPerChunk is how many snapshots one allocation holds, and twice as
// many tags fill one tag allocation: small enough that a short run pays
// little for the chunks, large enough that a long one allocates rarely.
const snapsPerChunk = 32

// denseForest is one function's loop forest indexed by block index, so an
// edge finds its loops without a map lookup.
type denseForest struct {
	heads []*cfg.Loop // the loop each block heads, if any
	inner []*cfg.Loop // the innermost loop each block belongs to, if any
}

// contains reports whether loop l contains block b: whether l is b's
// innermost loop or encloses it.
func (f *denseForest) contains(l *cfg.Loop, b *ir.Block) bool {
	for in := f.inner[b.Index]; in != nil; in = in.Parent {
		if in == l {
			return true
		}
	}
	return false
}

// forestOf returns fn's dense loop forest, building it on first use.
func (t *Tracker) forestOf(fn *ir.Func) *denseForest {
	if f := t.forests[fn]; f != nil {
		return f
	}
	f := &denseForest{heads: make([]*cfg.Loop, len(fn.Blocks)), inner: make([]*cfg.Loop, len(fn.Blocks))}
	if forest := t.prog.Forests[fn]; forest != nil {
		for b, l := range forest.ByHeader {
			f.heads[b.Index] = l
		}
		for b, l := range forest.Innermost {
			f.inner[b.Index] = l
		}
	}
	if t.forests == nil {
		t.forests = map[*ir.Func]*denseForest{}
	}
	t.forests[fn] = f
	return f
}

// ctxSuffixes holds CtxSuffixHash of each call-site-chain suffix leading
// to one frame, shortest first, at most maxCtxSuffix of them.
type ctxSuffixes struct {
	n int
	h [maxCtxSuffix]uint64
}

// ctxChain is the innermost maxCtxSuffix call sites leading to a frame,
// innermost last, nil-padded in front: the content the tracker interns
// ctxSuffixes by.
type ctxChain [maxCtxSuffix]*ir.Instr

// NewTracker creates a tracker over prog. Run registers the initial main
// frame via Begin.
func NewTracker(prog *cfg.Program) *Tracker { return &Tracker{prog: prog} }

// AddIterListener subscribes l to iteration boundaries.
func (t *Tracker) AddIterListener(l IterListener) { t.iterLis = append(t.iterLis, l) }

// Begin resets the tracker to a single main frame.
func (t *Tracker) Begin(main *ir.Func) {
	t.frames = t.frames[:0]
	t.push(main)
}

// push starts a frame for fn. It reuses the frame last popped at the same
// depth: nothing outside the tracker holds a frame after its return.
func (t *Tracker) push(fn *ir.Func) {
	var fr *Frame
	if n := len(t.frames); n < cap(t.frames) {
		fr = t.frames[:n+1][n]
	}
	if fr == nil {
		fr = &Frame{}
	}
	*fr = Frame{Fn: fn, loops: fr.loops[:0], forest: t.forestOf(fn), shape: t.Shape()}
	t.frames = append(t.frames, fr)
	t.ver++
}

// Frames exposes the current frame stack (bottom first).
func (t *Tracker) Frames() []*Frame { return t.frames }

// Loops exposes the frame's active loop entries, outermost first.
func (f *Frame) Loops() []*LoopEntry { return f.loops }

// Top returns the current frame.
func (t *Tracker) Top() *Frame {
	if len(t.frames) == 0 {
		return nil
	}
	return t.frames[len(t.frames)-1]
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ActiveLoops invokes fn for every active loop entry, innermost frame
// last; rep is the instruction representing the current activity for that
// entry's loop: the current instruction for the top frame, or the
// call site through which control left the entry's frame.
func (t *Tracker) ActiveLoops(cur *ir.Instr, fn func(e *LoopEntry, rep *ir.Instr)) {
	for fi, fr := range t.frames {
		var rep *ir.Instr
		if fi == len(t.frames)-1 {
			rep = cur
		} else {
			rep = fr.CallSite
		}
		for _, e := range fr.loops {
			fn(e, rep)
		}
	}
}

// snapshot returns the active loop tags at the current version, building
// them at most once per version.
func (t *Tracker) snapshot() *loopSnapshot {
	if t.snap != nil && t.snapVer == t.ver {
		return t.snap
	}
	n := 0
	for _, fr := range t.frames {
		n += len(fr.loops)
	}
	s := &t.noLoops
	if n > 0 {
		// Snapshots and their tags are carved from chunks, one allocation
		// per many versions.
		if len(t.snapChunk) == 0 {
			t.snapChunk = make([]loopSnapshot, snapsPerChunk)
		}
		if len(t.tagChunk) < n {
			t.tagChunk = make([]loopTag, max(n, 2*snapsPerChunk))
		}
		s = &t.snapChunk[0]
		t.snapChunk = t.snapChunk[1:]
		s.tags = t.tagChunk[:0:n]
		t.tagChunk = t.tagChunk[n:]
		last := len(t.frames) - 1
		for _, fr := range t.frames[:last] {
			if fr.CallSite == nil {
				continue
			}
			for _, e := range fr.loops {
				s.tags = append(s.tags, loopTag{act: e.Act, iter: e.Iter, loop: e.Loop, rep: fr.CallSite})
			}
		}
		s.top = len(s.tags)
		for _, e := range t.frames[last].loops {
			s.tags = append(s.tags, loopTag{act: e.Act, iter: e.Iter, loop: e.Loop})
		}
	}
	t.snap, t.snapVer = s, t.ver
	return s
}

// Shape identifies the loop activations on the whole stack: it changes
// when a loop is entered or left, and two moments with equal shapes have
// the same activations. Iterations, calls and returns leave it alone.
func (t *Tracker) Shape() uint64 {
	if top := t.Top(); top != nil {
		return top.shape
	}
	return 0
}

// ctxSuffixes returns the call-site-chain suffix hashes of the current
// frame, looked up once per frame, on first use. They are interned by
// chain, so every frame reached through the same call sites gets the
// same pointer, and each chain is hashed once per run.
func (t *Tracker) ctxSuffixes() *ctxSuffixes {
	last := len(t.frames) - 1
	if last < 0 {
		return &t.noCtx
	}
	fr := t.frames[last]
	if fr.ctx != nil {
		return fr.ctx
	}
	if last == 0 {
		fr.ctx = &t.noCtx
		return fr.ctx
	}
	var chain ctxChain
	k := len(chain)
	for fi := last - 1; fi >= 0 && k > 0; fi-- {
		if s := t.frames[fi].CallSite; s != nil {
			k--
			chain[k] = s
		}
	}
	c := t.ctxs[chain]
	if c == nil {
		c = &ctxSuffixes{n: len(chain) - k}
		for i := 1; i <= c.n; i++ {
			c.h[i-1] = CtxSuffixHash(chain[len(chain)-i:])
		}
		if t.ctxs == nil {
			t.ctxs = map[ctxChain]*ctxSuffixes{}
		}
		t.ctxs[chain] = c
	}
	fr.ctx = c
	return c
}

// Events implements interp.Selective.
func (t *Tracker) Events() interp.Event {
	return interp.EdgeEvent | interp.CallEvent | interp.ReturnEvent
}

func (t *Tracker) Call(site *ir.Instr, callee *ir.Func) {
	if top := t.Top(); top != nil {
		top.CallSite = site
		top.saved = nil
		if t.snapVer == t.ver {
			top.saved = t.snap
		}
	}
	t.push(callee)
}

func (t *Tracker) Return(callee *ir.Func) {
	if top := t.Top(); top != nil {
		// Defensively close any loop activations that survived to return.
		for i := len(top.loops) - 1; i >= 0; i-- {
			t.endIter(top.loops[i])
			t.exitLoop(top.loops[i])
		}
	}
	if len(t.frames) > 0 {
		t.frames = t.frames[:len(t.frames)-1]
	}
	t.ver++
	if top := t.Top(); top != nil {
		top.CallSite = nil
		// The caller's loops did not move while it was calling out, so the
		// snapshot current at the call is current again.
		if top.saved != nil {
			t.snap, t.snapVer = top.saved, t.ver
			top.saved = nil
		}
	}
}

func (t *Tracker) endIter(e *LoopEntry) {
	for _, l := range t.iterLis {
		l.IterEnd(e)
	}
}

func (t *Tracker) exitLoop(e *LoopEntry) {
	for _, l := range t.iterLis {
		l.LoopExit(e)
	}
}

func (t *Tracker) Edge(fn *ir.Func, from, to *ir.Block) {
	top := t.Top()
	if top == nil || top.Fn != fn {
		return
	}
	// Pop loops the edge leaves.
	for len(top.loops) > 0 {
		e := top.loops[len(top.loops)-1]
		if top.forest.contains(e.Loop, to) {
			break
		}
		t.endIter(e)
		t.exitLoop(e)
		top.loops = top.loops[:len(top.loops)-1]
		top.shape = e.outer
		t.ver++
	}
	// Header entry: back edge advances the iteration, outside entry starts
	// a new activation.
	if l := top.forest.heads[to.Index]; l != nil {
		if len(top.loops) > 0 && top.loops[len(top.loops)-1].Loop == l {
			e := top.loops[len(top.loops)-1]
			t.endIter(e)
			e.Iter++
			clear(e.liveObjs)
		} else {
			t.nextAct++
			t.nextShape++
			// Entries are carved from chunks like snapshots: listeners
			// may keep one after its loop exits, so none is reused.
			if len(t.entryChunk) == 0 {
				t.entryChunk = make([]LoopEntry, snapsPerChunk)
			}
			e := &t.entryChunk[0]
			t.entryChunk = t.entryChunk[1:]
			*e = LoopEntry{Loop: l, Act: t.nextAct, outer: top.shape}
			top.loops = append(top.loops, e)
			top.shape = t.nextShape
		}
		t.ver++
	}
}
