package bench

import (
	"encoding/json"
	"io"
	"sort"

	"scaf/internal/cfg"
	"scaf/internal/core"
	"scaf/internal/pdg"
)

// ReportLatency summarizes one scheme's per-top-level-query cost. The
// *_work_evals fields count module evaluations — a deterministic,
// machine-independent work measure (identical across hosts and worker
// counts absent a shared cache), which is what the regression gate
// compares. The *_ns wall-clock fields are informational only.
type ReportLatency struct {
	Samples      int   `json:"samples"`
	P50WorkEvals int64 `json:"p50_work_evals"`
	P90WorkEvals int64 `json:"p90_work_evals"`
	MaxWorkEvals int64 `json:"max_work_evals"`
	P50NS        int64 `json:"p50_ns"`
	P90NS        int64 `json:"p90_ns"`
}

// latencyOf derives the latency summary from recorded samples. Samples
// are sorted first, so the summary is independent of the order parallel
// workers happened to finish in.
func latencyOf(st *core.Stats) (ReportLatency, bool) {
	if st == nil || len(st.WorkSamples) == 0 {
		return ReportLatency{}, false
	}
	work := append([]int64(nil), st.WorkSamples...)
	ns := make([]int64, len(st.Latencies))
	for i, d := range st.Latencies {
		ns[i] = int64(d)
	}
	sort.Slice(work, func(i, j int) bool { return work[i] < work[j] })
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	nearest := func(sorted []int64, p int) int64 {
		if len(sorted) == 0 {
			return 0
		}
		idx := (len(sorted)*p + 99) / 100
		if idx < 1 {
			idx = 1
		}
		if idx > len(sorted) {
			idx = len(sorted)
		}
		return sorted[idx-1]
	}
	return ReportLatency{
		Samples:      len(work),
		P50WorkEvals: nearest(work, 50),
		P90WorkEvals: nearest(work, 90),
		MaxWorkEvals: work[len(work)-1],
		P50NS:        nearest(ns, 50),
		P90NS:        nearest(ns, 90),
	}, true
}

// ReportBench is one benchmark's entry in the machine-readable report.
type ReportBench struct {
	Name     string `json:"name"`
	HotLoops int    `json:"hot_loops"`
	// Queries counts the dependence queries of the SCAF run.
	Queries int `json:"queries"`
	// NoDepPct maps scheme name → weighted %NoDep over hot loops.
	NoDepPct map[string]float64 `json:"nodep_pct"`
	// Counters maps scheme name → orchestration counters.
	Counters map[string]core.Counters `json:"counters"`
	// Latency maps scheme name → per-query cost summary; present only
	// when the suite ran with latency recording on.
	Latency map[string]ReportLatency `json:"latency,omitempty"`
	// Exec is the speculative-execution summary; present only when the
	// report was built with -execute (see ExecuteSuite / AttachExec).
	Exec *ReportExec `json:"exec,omitempty"`
}

// Report is the -json output of scaf-bench: per-benchmark dependence
// coverage and orchestration accounting, stable enough to diff across
// commits in CI.
type Report struct {
	Parallelism int           `json:"parallelism"`
	Benchmarks  []ReportBench `json:"benchmarks"`
}

// BuildReport derives the machine-readable report from analyzed suites.
func BuildReport(s *Suite, as []*Analysis) *Report {
	r := &Report{Parallelism: s.Parallelism}
	for _, a := range as {
		b := a.B
		weights := b.LoopWeights()
		weight := func(l *cfg.Loop) float64 { return weights[l] }
		rb := ReportBench{
			Name:     b.Name,
			HotLoops: len(b.Hot),
			NoDepPct: map[string]float64{},
			Counters: map[string]core.Counters{},
		}
		for scheme, byLoop := range map[string]map[*cfg.Loop]*pdg.LoopResult{
			"CAF": a.CAF, "Confluence": a.Conf, "SCAF": a.SCAF,
		} {
			results := make([]*pdg.LoopResult, 0, len(b.Hot))
			for _, l := range b.Hot {
				if lr := byLoop[l]; lr != nil {
					results = append(results, lr)
				}
			}
			rb.NoDepPct[scheme] = pdg.WeightedNoDep(results, weight)
			rb.Counters[scheme] = a.Stats[scheme].Counters
			if lat, ok := latencyOf(a.Stats[scheme]); ok {
				if rb.Latency == nil {
					rb.Latency = map[string]ReportLatency{}
				}
				rb.Latency[scheme] = lat
			}
		}
		for _, l := range b.Hot {
			if lr := a.SCAF[l]; lr != nil {
				rb.Queries += len(lr.Queries)
			}
		}
		r.Benchmarks = append(r.Benchmarks, rb)
	}
	return r
}

// WriteReport writes the report as indented JSON.
func WriteReport(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
