package bench

import (
	"testing"

	"scaf"
	"scaf/internal/core"
)

// TestAblationTreeSubstitution shows where the motivating example's power
// comes from: with control speculation's speculative-tree premise queries
// disabled, the rule-1 (spec-dead endpoints) coverage remains but the
// kill-flow collaborations disappear, strictly lowering coverage on
// benchmarks built around the rare-path-skips-the-kill idiom.
func TestAblationTreeSubstitution(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	s, err := LoadSuite("129.compress", "183.equake", "544.nab")
	if err != nil {
		t.Fatal(err)
	}
	improvedSomewhere := false
	for _, b := range s.Benchmarks {
		client := b.Sys.Client()
		full := b.Sys.Orchestrator(scaf.SchemeSCAF)
		noTrees := b.Sys.Orchestrator(scaf.SchemeSCAF, scaf.WithoutTreeSubstitution())
		for _, l := range b.Hot {
			pFull := client.AnalyzeLoop(full, l).NoDepPct()
			pNoTrees := client.AnalyzeLoop(noTrees, l).NoDepPct()
			if pNoTrees > pFull+1e-9 {
				t.Errorf("%s %s: disabling tree substitution must not help (%.1f > %.1f)",
					b.Name, l.Name(), pNoTrees, pFull)
			}
			if pFull > pNoTrees+1e-9 {
				improvedSomewhere = true
			}
		}
	}
	if !improvedSomewhere {
		t.Error("tree substitution should matter on at least one hot loop")
	}
}

// TestCachingPreservesResultsAndCutsWork re-runs a benchmark's PDG with a
// memoizing orchestrator (one batch armed across both passes): identical
// per-query outcomes, far fewer module evaluations on the second pass.
func TestCachingPreservesResultsAndCutsWork(t *testing.T) {
	if testing.Short() {
		t.Skip("caching test in -short mode")
	}
	b, err := Load("183.equake")
	if err != nil {
		t.Fatal(err)
	}
	client := b.Sys.Client()
	plain := b.Sys.Orchestrator(scaf.SchemeSCAF)
	cached := b.Sys.Orchestrator(scaf.SchemeSCAF)
	cached.BeginBatch()
	defer cached.EndBatch()

	for _, l := range b.Hot {
		want := client.AnalyzeLoop(plain, l)
		got := client.AnalyzeLoop(cached, l)
		if len(want.Queries) != len(got.Queries) {
			t.Fatalf("query counts differ")
		}
		for i := range want.Queries {
			w, g := want.Queries[i], got.Queries[i]
			if w.NoDep != g.NoDep || w.Resp.Result != g.Resp.Result {
				t.Errorf("%s: cached result differs for %s->%s (%s): %v/%s vs %v/%s",
					l.Name(), w.I1, w.I2, w.Rel, w.NoDep, w.Resp.Result, g.NoDep, g.Resp.Result)
			}
		}
	}

	// Second pass over the same loops: the memo table should absorb nearly
	// everything.
	before := cached.Stats().ModuleEvals
	for _, l := range b.Hot {
		client.AnalyzeLoop(cached, l)
	}
	secondPass := cached.Stats().ModuleEvals - before
	if secondPass != 0 {
		t.Errorf("second pass consulted modules %d times; memoization should cover it", secondPass)
	}
	if cached.Stats().CacheHits == 0 {
		t.Error("no cache hits recorded")
	}
}

// TestJoinAllExposesAlternatives: under the ALL join policy the client can
// see multiple ways to resolve one query (paper §3.3's global reasoning).
func TestJoinAllExposesAlternatives(t *testing.T) {
	if testing.Short() {
		t.Skip("join-all test in -short mode")
	}
	b, err := Load("519.lbm")
	if err != nil {
		t.Fatal(err)
	}
	client := b.Sys.Client()
	o := b.Sys.Orchestrator(scaf.SchemeSCAF,
		scaf.WithJoin(core.JoinAll), scaf.WithBailout(core.BailExhaustive))
	multi := 0
	for _, l := range b.Hot {
		res := client.AnalyzeLoop(o, l)
		for _, q := range res.Queries {
			if q.NoDep && len(core.AffordableOptions(q.Resp.Options)) > 1 {
				multi++
			}
		}
	}
	if multi == 0 {
		t.Error("JoinAll + exhaustive search should expose multiple options for some queries")
	}
}
