package profile

import (
	"scaf/internal/cfg"
	"scaf/internal/interp"
	"scaf/internal/ir"
)

// DepKind classifies memory dependences.
type DepKind int

const (
	Flow   DepKind = iota // store → load (true dependence)
	Anti                  // load → store
	Output                // store → store
)

func (k DepKind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	}
	return "output"
}

// DepKey identifies one loop-relative observed dependence. Src and Dst are
// the instructions *as seen from the loop's own function*: an access in a
// callee is represented by the call site through which the loop reached it.
type DepKey struct {
	Loop  *cfg.Loop
	Src   *ir.Instr
	Dst   *ir.Instr
	Kind  DepKind
	Cross bool // cross-iteration (Src in a strictly earlier iteration)
}

// accessRec is one in-loop access as memdep remembers it, by value: the
// loop tags current when it ran, and the instruction that stands for it
// in the top frame's tags.
type accessRec struct {
	snap *loopSnapshot
	in   *ir.Instr
}

// tag returns the access's i-th loop tag.
func (r accessRec) tag(i int) loopTag {
	t := r.snap.tags[i]
	if i >= r.snap.top {
		t.rep = r.in
	}
	return t
}

// wordRec is one memory word's history since its last write: the write,
// when it ran inside a loop, and the in-loop reads after it.
type wordRec struct {
	write accessRec // snap is nil when there is no in-loop write
	reads []accessRec
}

// maxReadRecs bounds the per-word reader list; anti dependences beyond the
// cap within one write-free window are dropped (documented approximation).
const maxReadRecs = 16

// MemDepProfile is the loop-aware memory-dependence profiler (paper
// §4.2.2, after Chen et al.): it records which loop-relative dependences
// actually manifest, at 8-byte word granularity. It powers the
// memory-speculation baseline and the "observed deps" series of Fig. 8.
type MemDepProfile struct {
	interp.BaseObserver
	tracker *Tracker
	deps    map[DepKey]int64

	// Run-only state. objWords holds each object's 8-byte-aligned words,
	// indexed by object ID and then by word; words holds the records of
	// every other address. dsts counts, per destination instruction, the
	// dependences its accesses completed; release folds them into deps.
	objWords [][]wordRec
	words    map[uint64]*wordRec
	dsts     InstrTable[dstDeps]
}

// dstDeps counts the dependences one destination instruction completed.
// A lookup starts after the entry the last one hit: a loop nest's
// accesses complete the same dependences in the same order.
type dstDeps struct {
	counts []depCount
	next   int
}

// depCount is one dependence and how often it manifested.
type depCount struct {
	key DepKey
	n   int64
}

// add counts one manifestation of k.
func (d *dstDeps) add(k DepKey) {
	n := len(d.counts)
	for i := 0; i < n; i++ {
		j := d.next + i
		if j >= n {
			j -= n
		}
		if c := &d.counts[j].key; c.Src == k.Src && c.Dst == k.Dst && c.Loop == k.Loop && c.Kind == k.Kind && c.Cross == k.Cross {
			d.counts[j].n++
			d.next = j + 1
			return
		}
	}
	d.counts = append(d.counts, depCount{key: k, n: 1})
	d.next = n + 1
}

// NewMemDepProfile creates a memory-dependence profiler reading loop state
// from tracker.
func NewMemDepProfile(tracker *Tracker) *MemDepProfile {
	return &MemDepProfile{
		tracker: tracker,
		words:   map[uint64]*wordRec{},
		deps:    map[DepKey]int64{},
	}
}

// release folds the per-instruction dependence counts into the table the
// query methods read, then drops the state only the run needs.
func (p *MemDepProfile) release() {
	for _, tab := range p.dsts.byFn {
		for _, d := range tab {
			for _, c := range d.counts {
				p.deps[c.key] += c.n
			}
		}
	}
	p.tracker, p.objWords, p.words, p.dsts = nil, nil, nil, InstrTable[dstDeps]{}
}

// word returns the record of the word at addr in o. It creates the
// record's table on first use only when create is set, and returns nil
// when there is none.
func (p *MemDepProfile) word(addr uint64, o *interp.Object, create bool) *wordRec {
	if off := addr - o.Base; off%8 == 0 {
		for len(p.objWords) <= o.ID {
			p.objWords = append(p.objWords, nil)
		}
		ws := p.objWords[o.ID]
		if ws == nil {
			if !create {
				return nil
			}
			ws = make([]wordRec, (o.Size+7)/8)
			p.objWords[o.ID] = ws
		}
		return &ws[off/8]
	}
	w := p.words[addr]
	if w == nil && create {
		w = &wordRec{}
		p.words[addr] = w
	}
	return w
}

func (p *MemDepProfile) emit(from, to accessRec, kind DepKind) {
	d := p.dsts.At(to.in)
	for i := range from.snap.tags {
		tf := from.tag(i)
		for j := range to.snap.tags {
			tt := to.tag(j)
			if tt.act != tf.act {
				continue
			}
			d.add(DepKey{
				Loop:  tf.loop,
				Src:   tf.rep,
				Dst:   tt.rep,
				Kind:  kind,
				Cross: tt.iter > tf.iter,
			})
		}
	}
}

// sameRec reports whether a and b carry the same loop tags. Distinct
// snapshots can hold equal tags, e.g. in two calls through one call site
// within one iteration.
func sameRec(a, b accessRec) bool {
	if a.snap == b.snap && (a.in == b.in || a.snap.top == len(a.snap.tags)) {
		return true
	}
	if len(a.snap.tags) != len(b.snap.tags) {
		return false
	}
	for i := range a.snap.tags {
		if a.tag(i) != b.tag(i) {
			return false
		}
	}
	return true
}

// Events implements interp.Selective.
func (p *MemDepProfile) Events() interp.Event {
	return interp.LoadEvent | interp.StoreEvent | interp.FreeEvent
}

func (p *MemDepProfile) Load(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	rec := accessRec{p.tracker.snapshot(), in}
	if len(rec.snap.tags) == 0 {
		return // outside any loop: no loop-relative dependence to record
	}
	w := p.word(addr, o, true)
	if w.write.snap != nil {
		p.emit(w.write, rec, Flow)
	}
	if n := len(w.reads); n > 0 && sameRec(w.reads[n-1], rec) {
		return
	}
	if len(w.reads) < maxReadRecs {
		w.reads = append(w.reads, rec)
	}
}

func (p *MemDepProfile) Store(in *ir.Instr, addr uint64, size int64, val uint64, o *interp.Object) {
	rec := accessRec{p.tracker.snapshot(), in}
	w := p.word(addr, o, len(rec.snap.tags) > 0)
	if w == nil {
		return
	}
	for _, r := range w.reads {
		p.emit(r, rec, Anti)
	}
	if w.write.snap != nil {
		p.emit(w.write, rec, Output)
	}
	// The write ends the word's read window; a write outside all loops
	// still kills the earlier records.
	w.reads = w.reads[:0]
	w.write = accessRec{}
	if len(rec.snap.tags) > 0 {
		w.write = rec
	}
}

// Free drops a dead object's word table: no access reaches it again.
func (p *MemDepProfile) Free(in *ir.Instr, o *interp.Object) {
	if o.ID < len(p.objWords) {
		p.objWords[o.ID] = nil
	}
}

// Observed reports whether any dependence src→dst (of any kind) with the
// given iteration relation manifested within loop during profiling.
func (p *MemDepProfile) Observed(loop *cfg.Loop, src, dst *ir.Instr, cross bool) bool {
	for _, k := range []DepKind{Flow, Anti, Output} {
		if p.deps[DepKey{loop, src, dst, k, cross}] > 0 {
			return true
		}
	}
	return false
}

// Count returns the number of times the exact dependence manifested.
func (p *MemDepProfile) Count(k DepKey) int64 { return p.deps[k] }

// Deps exposes the raw dependence table.
func (p *MemDepProfile) Deps() map[DepKey]int64 { return p.deps }
