package scaf_test

import (
	"sync"
	"testing"

	"scaf"
	"scaf/internal/bench"
	"scaf/internal/core"
	"scaf/internal/interp"
	"scaf/internal/pdg"
	"scaf/internal/spec"
)

// The benchmarks below regenerate each of the paper's experiments under
// the Go benchmark harness; `go test -bench=. -benchmem` reports their
// cost, and the experiment outputs themselves come from cmd/scaf-bench.

var (
	suiteOnce sync.Once
	suite     *bench.Suite
	suiteErr  error
)

func loadSuite(b *testing.B) *bench.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = bench.LoadSuite()
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

// BenchmarkFig8 measures the full three-scheme PDG analysis per
// benchmark program — the work behind one bar of Fig. 8.
func BenchmarkFig8(b *testing.B) {
	s := loadSuite(b)
	for _, bm := range s.Benchmarks {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench.Analyze(bm)
			}
		})
	}
}

// BenchmarkFig9 measures the scatter computation over pre-analyzed
// results (Fig. 9 is a re-projection of Fig. 8's query set).
func BenchmarkFig9(b *testing.B) {
	s := loadSuite(b)
	as := bench.AnalyzeSuite(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Fig9(as)
	}
}

// BenchmarkTable2 measures the collaboration-coverage computation.
func BenchmarkTable2(b *testing.B) {
	s := loadSuite(b)
	as := bench.AnalyzeSuite(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Table2(as)
	}
}

// BenchmarkFig10 measures raw query latency per configuration — the
// quantity Fig. 10 plots. Each iteration resolves one PDG query.
func BenchmarkFig10(b *testing.B) {
	s := loadSuite(b)
	target := s.Benchmarks[7] // 183.equake: pointer-parameter kernels
	loop := target.Hot[0]
	dt := target.Sys.Prog.Dom[loop.Fn]
	pdt := target.Sys.Prog.PostDom[loop.Fn]
	ops := loop.MemOps()

	configs := []struct {
		name   string
		scheme scaf.Scheme
		opts   []scaf.OrchOption
	}{
		{"CAF", scaf.SchemeCAF, nil},
		{"SCAF-noDesired", scaf.SchemeSCAF, []scaf.OrchOption{scaf.WithoutDesiredResult()}},
		{"SCAF", scaf.SchemeSCAF, nil},
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			o := target.Sys.Orchestrator(cfg.scheme, cfg.opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				i1 := ops[i%len(ops)]
				i2 := ops[(i/len(ops)+i)%len(ops)]
				o.ModRef(&core.ModRefQuery{
					I1: i1, I2: i2, Rel: core.Before, Loop: loop, DT: dt, PDT: pdt,
				})
			}
		})
	}
}

// BenchmarkFig7ValidationCost measures the real-machine analogue of
// Fig. 7's asymmetry: a residue/heap check is a couple of ALU ops, a
// shadow-memory check is a map lookup plus update.
func BenchmarkFig7ValidationCost(b *testing.B) {
	b.Run("cheap-mask-check", func(b *testing.B) {
		addr := uint64(0x10040)
		miss := 0
		for i := 0; i < b.N; i++ {
			if addr&15 != 0 {
				miss++
			}
			addr += 16
		}
		_ = miss
	})
	b.Run("shadow-memory-check", func(b *testing.B) {
		shadow := make(map[uint64]uint32, 1024)
		addr := uint64(0x10040)
		miss := 0
		for i := 0; i < b.N; i++ {
			meta := shadow[addr>>3]
			if meta&3 == 3 {
				miss++
			}
			shadow[addr>>3] = meta | 1
			addr += 8
			if addr > 0x90040 {
				addr = 0x10040
			}
		}
		_ = miss
	})
}

// BenchmarkAblationRouting contrasts collaborative and isolated premise
// routing on identical query sets (the design choice DESIGN.md calls the
// collaboration switch).
func BenchmarkAblationRouting(b *testing.B) {
	s := loadSuite(b)
	target := s.Benchmarks[9] // 456.hmmer: heavy premise traffic
	client := target.Sys.Client()
	for _, cfg := range []struct {
		name   string
		scheme scaf.Scheme
	}{
		{"collaborative", scaf.SchemeSCAF},
		{"isolated", scaf.SchemeConfluence},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := target.Sys.Orchestrator(cfg.scheme)
				var res *pdg.LoopResult
				for _, l := range target.Hot {
					res = client.AnalyzeLoop(o, l)
				}
				_ = res
			}
		})
	}
}

// BenchmarkProfiling measures the full train-input profiling run of one
// benchmark (interpreter + all six profilers).
func BenchmarkProfiling(b *testing.B) {
	src := bench.Sources["129.compress"]
	for i := 0; i < b.N; i++ {
		if _, err := scaf.Load("129.compress", src, scaf.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRun measures a bare interp.Run, the interpreter alone under
// both program runs of a session create, of 175.vpr and 429.mcf.
// Compilation stays outside the timer.
func BenchmarkRun(b *testing.B) {
	for _, name := range []string{"175.vpr", "429.mcf"} {
		mod, err := scaf.Compile(name, bench.Sources[name])
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := interp.Run(mod, interp.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkValidation measures the validation run of a session create
// (System.Validate) over 183.equake's plan, built the way a session
// builds it. The plan holds control-spec, read-only, short-lived and
// value-prediction checks, so the run pays for the loop tracker too.
func BenchmarkValidation(b *testing.B) {
	sys, err := scaf.Load("183.equake", bench.Sources["183.equake"], scaf.Options{})
	if err != nil {
		b.Fatal(err)
	}
	o := sys.Orchestrator(scaf.SchemeSCAF, scaf.WithJoin(core.JoinAll), scaf.WithBailout(core.BailExhaustive))
	client := sys.Client()
	var asserts []core.Assertion
	seen := map[string]bool{}
	kinds := map[string]bool{}
	for _, l := range sys.HotLoops() {
		for _, a := range pdg.BuildPlan(client.ResolveLoop(o, l).Queries).Assertions {
			if k := a.String(); !seen[k] {
				seen[k] = true
				kinds[a.Module] = true
				asserts = append(asserts, a)
			}
		}
	}
	for _, k := range []string{spec.NameControlSpec, spec.NameReadOnly, spec.NameShortLived, spec.NameValuePred} {
		if !kinds[k] {
			b.Fatalf("183.equake's plan has no %s assertion", k)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sys.Validate(asserts)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed() {
			b.Fatalf("plan misspeculated on its training input: %v", rep.Violations)
		}
	}
}

// BenchmarkCompile measures front-end + SSA construction alone.
func BenchmarkCompile(b *testing.B) {
	src := bench.Sources["525.x264"]
	for i := 0; i < b.N; i++ {
		if _, err := scaf.Compile("525.x264", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanResolve measures the planning resolve of a session create
// on 175.vpr, the program where fleet-warm's create latency falls: a
// fresh SCAF orchestrator under JoinAll + BailExhaustive resolves every
// hot loop, as newSession does before it builds and validates the plan.
func BenchmarkPlanResolve(b *testing.B) {
	sys, err := scaf.Load("175.vpr", bench.Sources["175.vpr"], scaf.Options{})
	if err != nil {
		b.Fatal(err)
	}
	client := sys.Client()
	hot := sys.HotLoops()
	if len(hot) == 0 {
		b.Fatal("175.vpr has no hot loop")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := sys.Orchestrator(scaf.SchemeSCAF,
			scaf.WithJoin(core.JoinAll), scaf.WithBailout(core.BailExhaustive))
		for _, l := range hot {
			client.ResolveLoop(o, l)
		}
	}
}

// BenchmarkPlan measures the global validation planner (§3.4) over a
// JoinAll PDG of one benchmark's hot loops.
func BenchmarkPlan(b *testing.B) {
	s := loadSuite(b)
	target := s.Benchmarks[7] // 183.equake
	client := target.Sys.Client()
	o := target.Sys.Orchestrator(scaf.SchemeSCAF,
		scaf.WithJoin(core.JoinAll), scaf.WithBailout(core.BailExhaustive))
	var queries []pdg.Query
	for _, l := range target.Hot {
		res := client.AnalyzeLoop(o, l)
		for _, q := range res.Queries {
			if q.Rel == core.Before {
				queries = append(queries, q)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pdg.BuildPlan(queries)
	}
}
