// Soundness fuzzing, delegated to internal/oracle.
//
// This file lives in the external test package: internal/oracle depends on
// internal/bench (through internal/server), so an in-package test importing
// the oracle would be an import cycle.
package bench_test

import (
	"testing"

	"scaf/internal/oracle"
)

// soundnessTrial runs the soundness + monotonicity oracle over the random
// program of one seed: every dependence any scheme disproves is
// cross-checked against the ground truth the memory-dependence profiler
// records in a re-execution identical to the one the speculation was
// trained on (TestProfileDigest shows the two record the same
// dependences). A manifested dependence disproved by anything but value
// prediction is a soundness bug.
//
// Shared by the deterministic sweep below and FuzzMCGenSoundness. The
// heavier differential checks (parallel/shared-cache/server drift,
// metamorphic transforms) run in the oracle package's own sweep and in the
// scaf-oracle CLI.
func soundnessTrial(t testing.TB, seed int64) (loops, queries int) {
	rep, err := oracle.CheckSeed(oracle.FastConfig(), seed)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if rep.Failed() {
		t.Fatalf("seed %d: %s\n%s", seed, rep.Summary(), rep.Source)
	}
	return rep.HotLoops, rep.Queries
}

// TestFuzzAnalysisSoundness is the strongest correctness statement in the
// repository: soundnessTrial over hundreds of fixed seeds.
func TestFuzzAnalysisSoundness(t *testing.T) {
	trials := 150
	if testing.Short() {
		trials = 20
	}
	totalLoops, totalQueries := 0, 0
	for seed := int64(5000); seed < int64(5000+trials); seed++ {
		loops, queries := soundnessTrial(t, seed)
		totalLoops += loops
		totalQueries += queries
	}
	if totalLoops == 0 || totalQueries == 0 {
		t.Fatalf("fuzz exercised nothing: loops=%d queries=%d", totalLoops, totalQueries)
	}
	t.Logf("fuzzed %d loops, %d queries", totalLoops, totalQueries)
}

// FuzzMCGenSoundness is the native-fuzzing face of soundnessTrial: the
// engine mutates the generator seed, exploring program shapes the fixed
// sweep never visits. Run with
//
//	go test ./internal/bench/ -run '^$' -fuzz FuzzMCGenSoundness -fuzztime 30s
//
// A crashing input is a random program where some scheme disproved a
// dependence that manifested during its own training run; the corpus
// file the engine writes pins the seed for regression. To shrink a crash
// into a committed reproducer, feed the seed to
//
//	go run ./cmd/scaf-oracle -start <seed> -seeds 1 -shrink
func FuzzMCGenSoundness(f *testing.F) {
	// Seed the corpus with the start of the deterministic sweep plus a few
	// spread-out probes so coverage starts from varied program shapes.
	for _, seed := range []int64{0, 1, 42, 5000, 5001, 5002, 9000, 1 << 32, -7} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		soundnessTrial(t, seed)
	})
}

// TestFuzzSchemeMonotonicity: on random programs, per-query resolutions
// are monotone across CAF ⊆ confluence ⊆ SCAF. FastConfig includes the
// monotonicity check, so this is the same trial over a disjoint seed
// range; kept separate to preserve the historical seed coverage.
func TestFuzzSchemeMonotonicity(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	for seed := int64(9000); seed < int64(9000+trials); seed++ {
		soundnessTrial(t, seed)
	}
}
