package profile

import (
	"sort"

	"scaf/internal/cfg"
	"scaf/internal/interp"
	"scaf/internal/ir"
)

// Data bundles every profile one training run produces. It is the input
// the speculation modules consume.
type Data struct {
	Prog      *cfg.Program
	Edge      *EdgeProfile
	Value     *ValueProfile
	PointsTo  *PointsToProfile
	Residue   *ResidueProfile
	Lifetime  *LifetimeProfile
	Steps     int64
	Output    []string
	LoopStats map[*cfg.Loop]*LoopStat
}

// Collect runs the program once under the profilers the speculation
// modules read ("the train input run") and returns the gathered profiles.
// The memory-dependence profile is not among them: only the memspec
// baseline reads it, from a run of its own (CollectMemDep).
func Collect(prog *cfg.Program, opts interp.Options) (*Data, error) {
	tracker := NewTracker(prog)
	d := &Data{
		Prog:  prog,
		Edge:  NewEdgeProfile(prog.Mod),
		Value: NewValueProfile(),

		Residue: NewResidueProfile(),
	}
	d.PointsTo = NewPointsToProfile(tracker)
	d.Lifetime = NewLifetimeProfile(tracker)

	res, err := runTracked(prog, tracker, opts, d.Edge, d.Value, d.PointsTo, d.Residue, d.Lifetime)
	if err != nil {
		return nil, err
	}
	// The run's bookkeeping is dead now; only the profiles stay with d.
	d.Value.release()
	d.PointsTo.release()
	d.Residue.release()
	d.Lifetime.release()
	d.Edge.Finish()
	d.Steps = res.Steps
	d.Output = res.Output
	d.LoopStats = d.Edge.LoopStats(prog)
	return d, nil
}

// CollectMemDep runs the program once under the loop tracker and the
// memory-dependence profiler alone, and returns that profile. The run
// repeats Collect's (interpretation is deterministic; TestProfileDigest
// pins the two together), so it records the dependences the training run
// manifested.
func CollectMemDep(prog *cfg.Program, opts interp.Options) (*MemDepProfile, error) {
	tracker := NewTracker(prog)
	dep := NewMemDepProfile(tracker)
	if _, err := runTracked(prog, tracker, opts, dep); err != nil {
		return nil, err
	}
	dep.release()
	return dep, nil
}

// runTracked runs prog from main under tracker and then obs, ahead of
// any observers opts already carries. The tracker MUST observe first so
// loop state is current when the loop-sensitive profilers see the same
// event.
func runTracked(prog *cfg.Program, tracker *Tracker, opts interp.Options, obs ...interp.Observer) (*interp.Result, error) {
	if main := prog.Mod.FuncNamed("main"); main != nil {
		tracker.Begin(main)
	}
	opts.Observers = append(append([]interp.Observer{tracker}, obs...), opts.Observers...)
	return interp.Run(prog.Mod, opts)
}

// HotLoopParams mirrors the paper's hot-loop selection (§5): loops that
// account for at least MinWeightFrac of the dynamic instruction count and
// iterate at least MinAvgIters times per invocation on average.
type HotLoopParams struct {
	MinWeightFrac float64 // default 0.10
	MinAvgIters   float64 // default 50
}

// DefaultHotLoopParams returns the paper's thresholds.
func DefaultHotLoopParams() HotLoopParams {
	return HotLoopParams{MinWeightFrac: 0.10, MinAvgIters: 50}
}

// HotLoops selects hot loops, heaviest first.
func (d *Data) HotLoops(p HotLoopParams) []*cfg.Loop {
	var out []*cfg.Loop
	for l, st := range d.LoopStats {
		if d.Steps == 0 {
			continue
		}
		frac := float64(st.Weight) / float64(d.Steps)
		if frac >= p.MinWeightFrac && st.AvgIters() >= p.MinAvgIters {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		wi, wj := d.LoopStats[out[i]].Weight, d.LoopStats[out[j]].Weight
		if wi != wj {
			return wi > wj
		}
		return out[i].Name() < out[j].Name()
	})
	return out
}

// LoopWeightFrac returns the fraction of dynamic instructions spent in l.
func (d *Data) LoopWeightFrac(l *cfg.Loop) float64 {
	if d.Steps == 0 {
		return 0
	}
	return float64(d.LoopStats[l].Weight) / float64(d.Steps)
}

// InstrTable holds one record per instruction for one run, in a dense
// slice per function indexed by Instr.ID. The records live in the
// profiler or validator that owns the table, never on the ir objects,
// which sessions share. The zero value is an empty table.
type InstrTable[T any] struct {
	fn   *ir.Func
	cur  []T
	byFn map[*ir.Func][]T
}

// At returns in's record, creating its function's table on first use.
func (t *InstrTable[T]) At(in *ir.Instr) *T {
	if fn := in.Blk.Fn; fn != t.fn {
		tab, ok := t.byFn[fn]
		if !ok {
			if t.byFn == nil {
				t.byFn = map[*ir.Func][]T{}
			}
			tab = make([]T, fn.NumIDs())
			t.byFn[fn] = tab
		}
		t.fn, t.cur = fn, tab
	}
	if in.ID >= len(t.cur) {
		grown := make([]T, in.ID+1)
		copy(grown, t.cur)
		t.cur = grown
		t.byFn[t.fn] = grown
	}
	return &t.cur[in.ID]
}
