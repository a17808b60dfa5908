package core

import "time"

// MaxLatencySamples bounds Stats.Latencies. RecordLatency keeps the first
// MaxLatencySamples per-query durations and counts the rest in
// LatencyDropped, so long-running orchestrators (and merges of many worker
// stats) stay bounded in memory.
const MaxLatencySamples = 1 << 16

// Counters are the orchestration counters. The field order and JSON tags
// are the wire form: a session's /metrics "stats" object and each scheme's
// counters in the scaf-bench -json report are a Counters, encoded as is.
type Counters struct {
	TopQueries     int64 `json:"top_queries"`
	PremiseQueries int64 `json:"premise_queries"`
	// ModuleEvals counts individual module consultations — the
	// deterministic work measure behind query latency.
	ModuleEvals int64 `json:"module_evals"`
	Conflicts   int64 `json:"conflicts"`
	// CacheHits counts handle() invocations served from the batch-scoped
	// memo tables (BeginBatch).
	CacheHits int64 `json:"cache_hits"`
	// SharedHits counts top-level queries served from a cross-orchestrator
	// SharedCache (Config.Shared).
	SharedHits int64 `json:"shared_hits"`
	// Timeouts counts top-level queries cut short by the timeout policy —
	// at most one per top-level query, however many premise searches the
	// expired budget subsequently stops.
	Timeouts int64 `json:"timeouts"`
	// CycleBreaks counts premise queries that re-asked an in-flight
	// proposition and were answered conservatively (paper §3.3's
	// termination rule).
	CycleBreaks int64 `json:"cycle_breaks"`
	// DepthLimits counts premise queries rejected at Config.MaxDepth.
	DepthLimits int64 `json:"depth_limits"`
	// ModulePanics counts module evaluations that panicked and were
	// converted into conservative answers (Config.IsolatePanics). A
	// panicked resolution is tainted: it is never memoized or published,
	// so the degraded answer is confined to the one query that hit it.
	ModulePanics int64 `json:"module_panics"`
}

// Add adds other's counters to c.
func (c *Counters) Add(other *Counters) {
	c.TopQueries += other.TopQueries
	c.PremiseQueries += other.PremiseQueries
	c.ModuleEvals += other.ModuleEvals
	c.Conflicts += other.Conflicts
	c.CacheHits += other.CacheHits
	c.SharedHits += other.SharedHits
	c.Timeouts += other.Timeouts
	c.CycleBreaks += other.CycleBreaks
	c.DepthLimits += other.DepthLimits
	c.ModulePanics += other.ModulePanics
}

// Stats accumulates orchestration counters and latency samples.
type Stats struct {
	Counters
	// Latencies holds per-top-level-query wall-clock durations when
	// Config.RecordLatency is set, capped at MaxLatencySamples.
	Latencies []time.Duration
	// WorkSamples parallels Latencies with each query's module-eval count —
	// the deterministic work measure behind its wall-clock latency. Unlike
	// wall-clock samples, the multiset of work samples is identical across
	// machines and across serial/parallel runs (absent a SharedCache, whose
	// hits cost zero work and depend on interleaving), so percentile
	// regressions on it are machine-independent.
	WorkSamples []int64
	// LatencyDropped counts latency samples discarded past the cap.
	LatencyDropped int64
}

// recordLatency appends one latency+work sample pair, enforcing the
// MaxLatencySamples cap.
func (s *Stats) recordLatency(d time.Duration, work int64) {
	if len(s.Latencies) >= MaxLatencySamples {
		s.LatencyDropped++
		return
	}
	s.Latencies = append(s.Latencies, d)
	s.WorkSamples = append(s.WorkSamples, work)
}

// Merge folds other into s: counters add, and other's latency samples are
// appended under the same MaxLatencySamples cap (overflow lands in
// LatencyDropped). Aggregation of the counters is deterministic regardless
// of merge order; which latency samples survive the cap depends on the
// order stats are merged in, so callers aggregating worker stats should
// merge in a fixed (e.g. worker-index) order.
func (s *Stats) Merge(other *Stats) {
	if other == nil {
		return
	}
	s.Counters.Add(&other.Counters)
	s.LatencyDropped += other.LatencyDropped
	for i, d := range other.Latencies {
		// Hand-built Stats may carry latencies without work samples; treat
		// the missing work as zero rather than panicking.
		var work int64
		if i < len(other.WorkSamples) {
			work = other.WorkSamples[i]
		}
		s.recordLatency(d, work)
	}
}
