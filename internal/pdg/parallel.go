// Parallel PDG construction: the per-loop query sets of §5 are mutually
// independent, so loops fan out across a worker pool. Orchestrators are
// not safe for concurrent use, so each worker mints its own from a factory
// and the per-worker stats are merged afterwards. Loops resolve as batches
// (ResolveLoop) whose memo tables are cleared between loops, so with
// lifetime caching disabled (or routed through a core.SharedCache, whose
// publication rule only admits canonical entries) every loop's result is a
// pure function of the loop and the configuration, and the parallel client
// is bit-identical to the serial one; TestParallelMatchesSerial asserts
// exactly that.
package pdg

import (
	"runtime"
	"sync"
	"sync/atomic"

	"scaf/internal/cfg"
	"scaf/internal/core"
)

// ParallelClient resolves the dependence queries of many loops
// concurrently.
type ParallelClient struct {
	Client *Client
	// Workers is the pool size; values < 1 mean GOMAXPROCS. The pool never
	// exceeds the number of loops analyzed.
	Workers int
	// NewOrchestrator mints one Orchestrator per worker. It must return a
	// fresh, independent instance on every call — fresh module instances
	// included, since modules carry lazily built caches of their own. For
	// cross-worker memoization attach one core.SharedCache to every minted
	// config.
	NewOrchestrator func() *core.Orchestrator
	// NewTracer, when non-nil, mints one core.Tracer per worker (worker
	// indices are 0-based and dense) and attaches it to that worker's
	// orchestrator. Tracers are confined to their worker; combine them
	// afterwards in worker-index order (e.g. trace.Merge) for a
	// deterministic stream, mirroring how stats are merged. A nil return
	// leaves that worker untraced. Which loops land in which worker's trace
	// varies run to run — the per-event record does not, per loop.
	NewTracer func(worker int) core.Tracer
}

// NewParallelClient builds a parallel client over c with the given pool
// size and orchestrator factory.
func NewParallelClient(c *Client, workers int, factory func() *core.Orchestrator) *ParallelClient {
	return &ParallelClient{Client: c, Workers: workers, NewOrchestrator: factory}
}

// AnalyzeLoops builds the PDG of every loop, returning results in input
// order plus the workers' orchestration stats merged in worker-index
// order. Loops are handed out dynamically, so wall-clock time tracks the
// largest loop rather than the unluckiest static partition.
func (pc *ParallelClient) AnalyzeLoops(loops []*cfg.Loop) ([]*LoopResult, *core.Stats) {
	results := make([]*LoopResult, len(loops))
	merged := &core.Stats{}
	if len(loops) == 0 {
		return results, merged
	}
	workers := pc.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(loops) {
		workers = len(loops)
	}
	if workers == 1 {
		o := pc.NewOrchestrator()
		if pc.NewTracer != nil {
			o.SetTracer(pc.NewTracer(0))
		}
		for i, l := range loops {
			results[i] = pc.Client.ResolveLoop(o, l)
		}
		merged.Merge(o.Stats())
		return results, merged
	}

	stats := make([]*core.Stats, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Tracers are minted here, not in the goroutine, so NewTracer is
		// called serially and in worker order.
		var tr core.Tracer
		if pc.NewTracer != nil {
			tr = pc.NewTracer(w)
		}
		wg.Add(1)
		go func(w int, tr core.Tracer) {
			defer wg.Done()
			o := pc.NewOrchestrator()
			o.SetTracer(tr)
			stats[w] = o.Stats()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(loops) {
					return
				}
				results[i] = pc.Client.ResolveLoop(o, loops[i])
			}
		}(w, tr)
	}
	wg.Wait()
	for _, st := range stats {
		merged.Merge(st)
	}
	return results, merged
}
