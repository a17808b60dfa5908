package server

import (
	"fmt"
	"strconv"
	"strings"

	"scaf/internal/core"
	"scaf/internal/fleet"
	"scaf/internal/ir"
	"scaf/internal/pdg"
	"scaf/internal/persist"
	"scaf/internal/recovery"
	"scaf/internal/runtime"
)

// This file defines the HTTP wire schema: stable JSON forms of requests
// and of pdg/core results. Responses are encoded through the same
// functions the equivalence suite applies to library results, so "HTTP
// answers are bit-identical to scaf.AnalyzeWith" is checked at the level
// of serialized bytes, not a lossy summary.

// InstrRef is the stable wire name of an instruction: "func#id".
// Instruction IDs are unique within their function and stable across
// passes, so the pair identifies an instruction for the session's
// lifetime.
func InstrRef(in *ir.Instr) string {
	return in.Blk.Fn.Name + "#" + strconv.Itoa(in.ID)
}

// WireOption is one assertion option of a response.
type WireOption struct {
	Cost    float64  `json:"cost"`
	Asserts []string `json:"asserts,omitempty"`
}

// WireQuery is one resolved dependence query.
type WireQuery struct {
	I1       string       `json:"i1"`
	I2       string       `json:"i2"`
	Rel      string       `json:"rel"`
	Result   string       `json:"result"`
	NoDep    bool         `json:"nodep"`
	Cost     float64      `json:"cost,omitempty"`
	Options  []WireOption `json:"options,omitempty"`
	Contribs []string     `json:"contribs,omitempty"`
}

// WireLoopResult is the PDG of one loop in wire form.
type WireLoopResult struct {
	Loop     string      `json:"loop"`
	NoDepPct float64     `json:"nodep_pct"`
	Queries  []WireQuery `json:"queries"`
}

// EncodeQuery converts one pdg.Query to its wire form.
func EncodeQuery(q *pdg.Query) WireQuery {
	w := WireQuery{
		I1:       InstrRef(q.I1),
		I2:       InstrRef(q.I2),
		Rel:      q.Rel.String(),
		Result:   q.Resp.Result.String(),
		NoDep:    q.NoDep,
		Cost:     q.Cost,
		Contribs: q.Resp.Contribs,
	}
	for _, o := range q.Resp.Options {
		wo := WireOption{Cost: o.Cost()}
		for _, a := range o.Asserts {
			wo.Asserts = append(wo.Asserts, a.String())
		}
		w.Options = append(w.Options, wo)
	}
	return w
}

// EncodeLoopResult converts one pdg.LoopResult to its wire form.
func EncodeLoopResult(r *pdg.LoopResult) WireLoopResult {
	w := WireLoopResult{
		Loop:     r.Loop.Name(),
		NoDepPct: r.NoDepPct(),
		Queries:  make([]WireQuery, 0, len(r.Queries)),
	}
	for i := range r.Queries {
		w.Queries = append(w.Queries, EncodeQuery(&r.Queries[i]))
	}
	return w
}

// ParseRel parses a wire temporal relation (case-insensitive).
func ParseRel(s string) (core.TemporalRelation, error) {
	switch strings.ToLower(s) {
	case "same", "":
		return core.Same, nil
	case "before":
		return core.Before, nil
	case "after":
		return core.After, nil
	}
	return core.Same, fmt.Errorf("unknown temporal relation %q (want same|before|after)", s)
}

// WirePoint addresses a program point for client-supplied assertions.
// Exactly one of Global, Block (with Fn), or Instr (with Fn) identifies
// the point; EdgeTo with Block names a CFG edge.
type WirePoint struct {
	Fn     string `json:"fn,omitempty"`
	Block  string `json:"block,omitempty"`
	EdgeTo string `json:"edge_to,omitempty"`
	Instr  *int   `json:"instr,omitempty"`
	Global string `json:"global,omitempty"`
}

// WireAssertion is a client-supplied speculative assertion, validated on
// session load along with the framework's own plan.
type WireAssertion struct {
	Module string      `json:"module"`
	Kind   string      `json:"kind,omitempty"`
	Points []WirePoint `json:"points"`
	Cost   float64     `json:"cost,omitempty"`
}

func findBlock(fn *ir.Func, name string) *ir.Block {
	for _, b := range fn.Blocks {
		if b.String() == name || b.Name == name {
			return b
		}
	}
	return nil
}

// ResolvePoint resolves a wire point against a compiled module.
func ResolvePoint(mod *ir.Module, p WirePoint) (core.Point, error) {
	switch {
	case p.Global != "":
		g := mod.GlobalNamed(p.Global)
		if g == nil {
			return core.Point{}, fmt.Errorf("unknown global %q", p.Global)
		}
		return core.Point{G: g}, nil
	case p.Fn != "":
		fn := mod.FuncNamed(p.Fn)
		if fn == nil {
			return core.Point{}, fmt.Errorf("unknown function %q", p.Fn)
		}
		if p.Instr != nil {
			var found *ir.Instr
			fn.Instrs(func(in *ir.Instr) {
				if in.ID == *p.Instr {
					found = in
				}
			})
			if found == nil {
				return core.Point{}, fmt.Errorf("no instruction #%d in %q", *p.Instr, p.Fn)
			}
			return core.Point{Instr: found}, nil
		}
		if p.Block != "" {
			b := findBlock(fn, p.Block)
			if b == nil {
				return core.Point{}, fmt.Errorf("no block %q in %q", p.Block, p.Fn)
			}
			pt := core.Point{Block: b}
			if p.EdgeTo != "" {
				to := findBlock(fn, p.EdgeTo)
				if to == nil {
					return core.Point{}, fmt.Errorf("no block %q in %q", p.EdgeTo, p.Fn)
				}
				pt.EdgeTo = to
			}
			return pt, nil
		}
	}
	return core.Point{}, fmt.Errorf("point needs a global, or a function with a block or instruction")
}

// ResolveAssertion resolves a wire assertion against a compiled module.
func ResolveAssertion(mod *ir.Module, wa WireAssertion) (core.Assertion, error) {
	a := core.Assertion{Module: wa.Module, Kind: wa.Kind, Cost: wa.Cost}
	if a.Module == "" {
		return a, fmt.Errorf("assertion needs a module name")
	}
	for i, wp := range wa.Points {
		p, err := ResolvePoint(mod, wp)
		if err != nil {
			return a, fmt.Errorf("point %d: %w", i, err)
		}
		a.Points = append(a.Points, p)
	}
	return a, nil
}

// CreateSessionRequest loads one program as a session. Either Bench names
// an embedded benchmark, or Name+Source carry MC source directly.
type CreateSessionRequest struct {
	Name   string `json:"name,omitempty"`
	Source string `json:"source,omitempty"`
	Bench  string `json:"bench,omitempty"`
	// Plan selects speculation-plan handling on load: "validate" (the
	// default) builds the global validation plan over the hot loops
	// (JoinAll + exhaustive bail-out, as the planner requires) and re-runs
	// the program with the plan's runtime checks enforced, rejecting the
	// session on any misspeculation; "off" skips plan construction.
	Plan string `json:"plan,omitempty"`
	// Assertions are additional client-supplied speculative assertions
	// validated on load together with the plan. A violating assertion
	// rejects the whole session with a structured error.
	Assertions []WireAssertion `json:"assertions,omitempty"`
	// Trace, when explicitly false, disables per-session trace metrics.
	Trace *bool `json:"trace,omitempty"`
	// HotLoops overrides the paper's hot-loop thresholds for this session
	// (both fields are required together). The differential-testing oracle
	// uses this to analyze the small loops of generated programs through
	// the HTTP path with the same hot set as the library path.
	HotLoops *WireHotLoopParams `json:"hot_loops,omitempty"`
}

// WireHotLoopParams carries hot-loop threshold overrides on the wire.
type WireHotLoopParams struct {
	MinWeightFrac float64 `json:"min_weight_frac"`
	MinAvgIters   float64 `json:"min_avg_iters"`
}

// PlanInfo summarizes the session's validated speculation plan.
type PlanInfo struct {
	Assertions int     `json:"assertions"`
	TotalCost  float64 `json:"total_cost"`
	Free       int     `json:"free"`
	Covered    int     `json:"covered"`
	Dropped    int     `json:"dropped"`
	Unresolved int     `json:"unresolved"`
	// Checks counts the runtime checks executed by the validation re-run
	// (0 when the plan needed no assertions).
	Checks int64 `json:"checks"`
}

// LoopInfo describes one hot loop of a session.
type LoopInfo struct {
	Name   string `json:"name"`
	MemOps int    `json:"mem_ops"`
}

// SessionInfo describes one loaded session.
type SessionInfo struct {
	ID       string     `json:"id"`
	Name     string     `json:"name"`
	HotLoops []LoopInfo `json:"hot_loops"`
	Plan     *PlanInfo  `json:"plan,omitempty"`
}

// AnalyzeRequest asks for the PDGs of a batch of hot loops under one
// scheme. An empty Loops list means every hot loop.
type AnalyzeRequest struct {
	Scheme string   `json:"scheme"`
	Loops  []string `json:"loops,omitempty"`
	// DeadlineMS bounds the whole request: once the deadline passes, each
	// remaining dependence query is given an (expired) budget and bails
	// out to its conservative best-so-far answer instead of searching.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// AnalyzeResponse carries the batch results.
type AnalyzeResponse struct {
	Session string           `json:"session"`
	Scheme  string           `json:"scheme"`
	Results []WireLoopResult `json:"results"`
	// DeadlineMisses counts top-level queries cut short by the deadline.
	DeadlineMisses int64 `json:"deadline_misses,omitempty"`
	// CoalesceHits counts loops served by coalescing onto another
	// in-flight identical computation.
	CoalesceHits int64 `json:"coalesce_hits,omitempty"`
}

// QueryRequest asks one dependence query: may instruction I1 access the
// footprint of I2 under the temporal relation within the loop?
type QueryRequest struct {
	Scheme     string `json:"scheme"`
	Loop       string `json:"loop"`
	I1         string `json:"i1"`
	I2         string `json:"i2"`
	Rel        string `json:"rel,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
}

// QueryResponse carries one resolved query.
type QueryResponse struct {
	Session      string    `json:"session"`
	Scheme       string    `json:"scheme"`
	Query        WireQuery `json:"query"`
	Coalesced    bool      `json:"coalesced,omitempty"`
	DeadlineMiss bool      `json:"deadline_miss,omitempty"`
}

// WireViolation is one misspeculation found while validating a plan, or
// reported by a client's recovery code via POST /sessions/{id}/observe
// (the wire shape of validate.Report's violations in both directions).
type WireViolation struct {
	Assertion string `json:"assertion"`
	Detail    string `json:"detail"`
}

// ObserveRequest reports production-execution observations against a
// session: assertions the real input disproved, and modules to withdraw
// wholesale. Quarantining is monotonic — repeated reports of the same
// assertion count as flakiness, not state changes.
type ObserveRequest struct {
	// Violations lists disproven assertions by their wire identity (the
	// `assertion` strings served in query options and plan-validation
	// errors).
	Violations []WireViolation `json:"violations,omitempty"`
	// Modules withdraws whole modules: every cached answer is flushed and
	// the module is never consulted again in this session.
	Modules []string `json:"modules,omitempty"`
}

// ObserveResponse summarizes one recovery pass.
type ObserveResponse struct {
	Session string `json:"session"`
	// NewAsserts / NewModules count newly-quarantined entries (repeats are
	// visible in Quarantine.Repeats).
	NewAsserts int `json:"new_asserts"`
	NewModules int `json:"new_modules"`
	// Invalidated counts cache entries removed because they were
	// predicated on a reported assertion (summed over schemes).
	Invalidated int `json:"invalidated"`
	// Reresolved counts invalidated queries re-resolved under the degraded
	// plan before this response was sent.
	Reresolved int `json:"reresolved"`
	// Flushed counts cache entries dropped by module-level quarantine
	// (module attribution is not entry-exact, so module withdrawal flushes).
	Flushed int `json:"flushed,omitempty"`
	// Quarantine is the session's post-observation quarantine state.
	Quarantine recovery.Snapshot `json:"quarantine"`
}

// ErrorDetail is the structured error body of every non-2xx response.
type ErrorDetail struct {
	Code       string          `json:"code"`
	Message    string          `json:"message"`
	Violations []WireViolation `json:"violations,omitempty"`
}

// ErrorResponse wraps ErrorDetail.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// WireCounters mirrors core.Stats' counters on the wire.
type WireCounters struct {
	TopQueries     int64 `json:"top_queries"`
	PremiseQueries int64 `json:"premise_queries"`
	ModuleEvals    int64 `json:"module_evals"`
	Conflicts      int64 `json:"conflicts"`
	CacheHits      int64 `json:"cache_hits"`
	SharedHits     int64 `json:"shared_hits"`
	// RemoteHits is the subset of SharedHits served by the fleet's
	// cross-instance cache tier (always 0 outside fleet mode).
	RemoteHits   int64 `json:"remote_hits"`
	Timeouts     int64 `json:"timeouts"`
	CycleBreaks  int64 `json:"cycle_breaks"`
	DepthLimits  int64 `json:"depth_limits"`
	ModulePanics int64 `json:"module_panics"`
}

// EncodeCounters converts core.Stats counters to wire form.
func EncodeCounters(st *core.Stats) WireCounters {
	if st == nil {
		return WireCounters{}
	}
	return WireCounters{
		TopQueries:     st.TopQueries,
		PremiseQueries: st.PremiseQueries,
		ModuleEvals:    st.ModuleEvals,
		Conflicts:      st.Conflicts,
		CacheHits:      st.CacheHits,
		SharedHits:     st.SharedHits,
		RemoteHits:     st.RemoteHits,
		Timeouts:       st.Timeouts,
		CycleBreaks:    st.CycleBreaks,
		DepthLimits:    st.DepthLimits,
		ModulePanics:   st.ModulePanics,
	}
}

// WireLatency summarizes per-query latency samples: wall-clock
// percentiles plus the deterministic work measure (module evals).
type WireLatency struct {
	Samples  int   `json:"samples"`
	Dropped  int64 `json:"dropped,omitempty"`
	P50NS    int64 `json:"p50_ns"`
	P90NS    int64 `json:"p90_ns"`
	P99NS    int64 `json:"p99_ns"`
	P50Work  int64 `json:"p50_work_evals"`
	P90Work  int64 `json:"p90_work_evals"`
	MaxNS    int64 `json:"max_ns"`
	TotalNS  int64 `json:"total_ns"`
	TotalWrk int64 `json:"total_work_evals"`
}

// WireModuleMetrics is one module's consult aggregate from the trace.
type WireModuleMetrics struct {
	Consults      int64 `json:"consults"`
	DurNS         int64 `json:"dur_ns"`
	PremisesAsked int64 `json:"premises_asked"`
}

// WireTraceMetrics is the trace-derived aggregate of a session.
type WireTraceMetrics struct {
	TopQueries     int64                        `json:"top_queries"`
	PremiseQueries int64                        `json:"premise_queries"`
	Consults       int64                        `json:"consults"`
	MaxDepth       int                          `json:"max_depth"`
	TopResults     map[string]int64             `json:"top_results,omitempty"`
	PerModule      map[string]WireModuleMetrics `json:"per_module,omitempty"`
	// Reconciles reports whether the trace aggregate matches the
	// orchestration counters exactly (the Tracer-contract guarantee).
	Reconciles bool `json:"reconciles"`
}

// SessionMetrics is one session's entry in the /metrics report.
type SessionMetrics struct {
	Name    string            `json:"name"`
	Stats   WireCounters      `json:"stats"`
	Latency *WireLatency      `json:"latency,omitempty"`
	Trace   *WireTraceMetrics `json:"trace,omitempty"`
	// Quarantine is present once the session has quarantined anything.
	Quarantine *recovery.Snapshot `json:"quarantine,omitempty"`
}

// ServerCounters are the server-level counters of the /metrics report.
type ServerCounters struct {
	Accepted       int64 `json:"accepted"`
	Rejected       int64 `json:"rejected"`
	QueueDepth     int64 `json:"queue_depth"`
	InFlight       int64 `json:"in_flight"`
	CoalesceHits   int64 `json:"coalesce_hits"`
	DeadlineMisses int64 `json:"deadline_misses"`
	QueriesServed  int64 `json:"queries_served"`
	LoopsServed    int64 `json:"loops_served"`
	// ServerPanics counts HTTP handlers that panicked and were converted
	// into 500 responses by the recovery middleware.
	ServerPanics int64 `json:"server_panics"`
	// Observations counts POST /observe recovery passes served.
	Observations int64 `json:"observations"`
	// Executions counts POST /execute speculative runs served.
	Executions int64 `json:"executions"`
	// FleetLoopHits counts /analyze loops served whole from the fleet's
	// cross-instance lookaside (always 0 outside fleet mode).
	FleetLoopHits int64 `json:"fleet_loop_hits,omitempty"`
	Sessions      int   `json:"sessions"`
	Draining      bool  `json:"draining"`
}

// MetricsResponse is the /metrics body.
type MetricsResponse struct {
	Server   ServerCounters            `json:"server"`
	Sessions map[string]SessionMetrics `json:"sessions"`
	// Fleet is the instance's cache-tier counters (fleet mode only).
	Fleet *fleet.TierStats `json:"fleet,omitempty"`
	// Persist is the durable tier's counters (persistent instances only).
	Persist *persist.Stats `json:"persist,omitempty"`
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status   string `json:"status"`
	Sessions int    `json:"sessions"`
}

// splitInstrRef splits "func#id" into its parts.
func splitInstrRef(ref string) (fn string, id int, err error) {
	i := strings.LastIndexByte(ref, '#')
	if i <= 0 || i == len(ref)-1 {
		return "", 0, fmt.Errorf("malformed instruction ref %q (want func#id)", ref)
	}
	id, err = strconv.Atoi(ref[i+1:])
	if err != nil {
		return "", 0, fmt.Errorf("malformed instruction ref %q: %v", ref, err)
	}
	return ref[:i], id, nil
}

// ExecuteRequest asks the daemon to run the session's program under the
// speculative-parallel runtime, driven by the plan the chosen scheme
// produces for the session's hot loops.
type ExecuteRequest struct {
	// Scheme is "caf" | "confluence" | "scaf" (default scaf).
	Scheme string `json:"scheme,omitempty"`
	// Workers sizes the speculative chunking (default 4, capped at 64).
	Workers int `json:"workers,omitempty"`
	// MinIters is the smallest trip count worth speculating (default
	// 2×Workers).
	MinIters int64 `json:"min_iters,omitempty"`
}

// WireExecLoop mirrors runtime.LoopStats on the wire.
type WireExecLoop struct {
	Loop            string `json:"loop"`
	Refusal         string `json:"refusal,omitempty"`
	Invocations     int64  `json:"invocations"`
	SpecInvocations int64  `json:"spec_invocations"`
	Chunks          int64  `json:"chunks"`
	CommittedChunks int64  `json:"committed_chunks"`
	AbortedChunks   int64  `json:"aborted_chunks"`
	SpecIters       int64  `json:"spec_iters"`
	SerialIters     int64  `json:"serial_iters"`
	Misspecs        int64  `json:"misspecs"`
}

// WireExecReport mirrors runtime.Report on the wire, with the program's
// observable output included (the library form excludes it from JSON so
// deterministic counter gates can marshal reports directly).
type WireExecReport struct {
	Output             []string       `json:"output"`
	Steps              int64          `json:"steps"`
	MemDigest          uint64         `json:"mem_digest"`
	Loops              []WireExecLoop `json:"loops,omitempty"`
	DoallLoops         int            `json:"doall_loops"`
	RefusedLoops       int            `json:"refused_loops"`
	SpecInvocations    int64          `json:"spec_invocations"`
	Chunks             int64          `json:"chunks"`
	CommittedChunks    int64          `json:"committed_chunks"`
	AbortedChunks      int64          `json:"aborted_chunks"`
	SpecIters          int64          `json:"spec_iters"`
	SerialIters        int64          `json:"serial_iters"`
	Misspecs           int64          `json:"misspecs"`
	ReplanRounds       int64          `json:"replan_rounds"`
	QuarantinedAsserts []string       `json:"quarantined_asserts,omitempty"`
	WallNanos          int64          `json:"wall_nanos"`
}

// EncodeExecReport converts a runtime report to wire form.
func EncodeExecReport(r *runtime.Report) WireExecReport {
	w := WireExecReport{
		Output:             r.Output,
		Steps:              r.Steps,
		MemDigest:          r.MemDigest,
		DoallLoops:         r.DoallLoops,
		RefusedLoops:       r.RefusedLoops,
		SpecInvocations:    r.SpecInvocations,
		Chunks:             r.Chunks,
		CommittedChunks:    r.CommittedChunks,
		AbortedChunks:      r.AbortedChunks,
		SpecIters:          r.SpecIters,
		SerialIters:        r.SerialIters,
		Misspecs:           r.Misspecs,
		ReplanRounds:       r.ReplanRounds,
		QuarantinedAsserts: r.QuarantinedAsserts,
		WallNanos:          r.WallNanos,
	}
	for _, ls := range r.Loops {
		w.Loops = append(w.Loops, WireExecLoop{
			Loop:            ls.Loop,
			Refusal:         ls.Refusal,
			Invocations:     ls.Invocations,
			SpecInvocations: ls.SpecInvocations,
			Chunks:          ls.Chunks,
			CommittedChunks: ls.CommittedChunks,
			AbortedChunks:   ls.AbortedChunks,
			SpecIters:       ls.SpecIters,
			SerialIters:     ls.SerialIters,
			Misspecs:        ls.Misspecs,
		})
	}
	return w
}

// ExecuteResponse is the /execute body. A misspeculating execution is a
// 200 — recovery is part of the contract; the report says what happened.
type ExecuteResponse struct {
	Session string         `json:"session"`
	Scheme  string         `json:"scheme"`
	Report  WireExecReport `json:"report"`
	// NewAsserts counts assertions the execution disproved and
	// quarantined; Invalidated counts the session's analysis-cache entries
	// dropped because they were predicated on them (summed over schemes).
	NewAsserts  int `json:"new_asserts"`
	Invalidated int `json:"invalidated"`
	// Quarantine is the session's post-execution quarantine state.
	Quarantine recovery.Snapshot `json:"quarantine"`
}
