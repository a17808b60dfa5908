// Package oracle is the differential-testing subsystem: one reusable
// soundness predicate over randomly generated MC programs, checked across
// every execution path of the analysis (serial, parallel, shared-cache,
// and the HTTP serving daemon), a metamorphic layer of semantics-preserving
// source transforms under which non-speculative answers must be preserved,
// and a delta-debugging reducer that shrinks any failing program to a
// minimal reproducer.
//
// The predicate generalizes the repository's fuzzing logic into a library:
// generate (or accept) an MC program, compile and profile it, collect the
// memory-dependence profiler's ground truth from a re-execution identical
// to the one the speculation was trained on (profile.TestProfileDigest
// shows the two record the same dependences), then check every analysis
// scheme's answers.
// A dependence that manifested during training and is nonetheless disproved
// by anything but value prediction is a soundness bug; any divergence
// between execution paths of the same scheme is answer drift; any change in
// non-speculative answers under a semantics-preserving transform is a
// stability bug. All three are reported uniformly as Violations, so the
// fuzz loop, the test suite, and the scaf-oracle CLI share one verdict.
package oracle

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"scaf"
	"scaf/internal/cfg"
	"scaf/internal/core"
	"scaf/internal/interp"
	"scaf/internal/mcgen"
	"scaf/internal/memspec"
	"scaf/internal/pdg"
	"scaf/internal/profile"
	"scaf/internal/recovery"
	"scaf/internal/runtime"
	"scaf/internal/server"
	"scaf/internal/spec"
)

// Config selects which checks a trial runs. The zero value checks nothing;
// use FullConfig or FastConfig as a starting point.
type Config struct {
	// HotLoops overrides the paper's hot-loop thresholds so the small
	// random loops all get analyzed.
	HotLoops profile.HotLoopParams
	// Schemes are the analysis schemes whose answers are soundness-checked.
	Schemes []scaf.Scheme
	// Monotonicity cross-checks per-query resolutions across schemes
	// (CAF ⊆ Confluence ⊆ SCAF). Requires all three schemes.
	Monotonicity bool
	// Parallel re-resolves every scheme through pdg.ParallelClient and
	// flags any drift from the serial answers.
	Parallel bool
	// SharedCache re-resolves through a parallel client whose workers
	// share one core.SharedCache.
	SharedCache bool
	// Server re-resolves through the internal/server HTTP path (an
	// in-process handler; no network) and compares at the level of
	// serialized wire bytes. Incompatible with ExtraModules — the daemon
	// builds its own orchestrators. Server, Fleet, Persist and Elastic
	// share one cold reference instance per program and its one set of
	// golds (see goldSet).
	Server bool
	// Fleet re-resolves through a sharded fleet — two scaf-serve backends
	// wired as cache peers behind a consistent-hash scaf-router on
	// loopback — and byte-compares every response body (create, spliced
	// analyze envelopes, queries, serial and parallel) against the
	// reference instance's. Incompatible with ExtraModules, like Server.
	Fleet bool
	// Persist runs the warm-restart pass: a persistent fleet-of-one
	// instance serves the session, drains (snapshotting its shard),
	// restarts from the same directory, and the warm instance's bytes
	// must equal the reference instance's — including across a restart
	// that straddles an /observe quarantine, where the revoked entries
	// must be physical misses after reload. Incompatible with
	// ExtraModules, like Server and Fleet.
	Persist bool
	// Elastic runs the live-membership pass on the fleet topology plus one
	// spare backend (the same fleet boot as Fleet's, whose static members
	// are byte-compared serially first): the spare is joined through POST
	// /fleet/join while concurrent clients replay the golds (bounded 503
	// retries are the only permitted detour), then the fleet is shrunk
	// through POST /fleet/leave — every answer byte-compared against the
	// golds, with the joiner required to actually serve from its streamed
	// segments. Incompatible with ExtraModules, like Server and Fleet.
	Elastic bool
	// Transforms is the metamorphic layer: each transform is applied to
	// the source, validated by re-running the interpreter and comparing
	// observable behavior, and only then do preserved-answer checks count.
	Transforms []Transform
	// Execution runs the execution-equivalence pass: every scheme's plans
	// are handed to the speculative-parallel runtime and the result (final
	// memory image + observable output) must be byte-equal to serial
	// interpretation. A second, chaos-seeded run forces misspeculations and
	// must stay byte-equal on every recovery round and converge to a
	// misspeculation-free execution.
	Execution bool
	// Recovery runs the misspeculation-recovery pass: a fault-injection
	// module is added to every scheme's ensemble and made to answer a
	// fraction of queries with confidently wrong speculation; the pass then
	// quarantines the observed lies exactly as a production observe loop
	// would, and requires the degraded answers to be byte-identical to the
	// fault-free serial reference and sound against profiled ground truth.
	Recovery bool
	// ExtraModules, when non-nil, mints additional modules appended to
	// every orchestrator built for the library paths (serial, parallel,
	// shared-cache). It is called once per orchestrator so module state is
	// never shared across workers. Used by the reducer tests to inject
	// known soundness bugs behind a test-only hook.
	ExtraModules func() []core.Module
	// Workers sizes the parallel clients (default 4).
	Workers int
	// CacheBytes is the shard budget of every fleet backend the Fleet,
	// Persist and Elastic passes boot (0 = the server default). A budget
	// small enough to evict checks that eviction only ever costs hits.
	CacheBytes int64
}

// FullConfig checks everything: all schemes, all execution paths, all
// metamorphic transforms.
func FullConfig() Config {
	return Config{
		HotLoops:     profile.HotLoopParams{MinWeightFrac: 0.001, MinAvgIters: 1.5},
		Schemes:      []scaf.Scheme{scaf.SchemeCAF, scaf.SchemeConfluence, scaf.SchemeSCAF},
		Monotonicity: true,
		Parallel:     true,
		SharedCache:  true,
		Server:       true,
		Fleet:        true,
		Persist:      true,
		Elastic:      true,
		Recovery:     true,
		Execution:    true,
		Transforms:   Transforms(),
		Workers:      4,
	}
}

// FastConfig is the fuzzing-loop predicate: serial soundness over all
// schemes plus monotonicity, nothing else. One iteration is cheap enough
// for -fuzz budgets measured in seconds.
func FastConfig() Config {
	return Config{
		HotLoops:     profile.HotLoopParams{MinWeightFrac: 0.001, MinAvgIters: 1.5},
		Schemes:      []scaf.Scheme{scaf.SchemeCAF, scaf.SchemeConfluence, scaf.SchemeSCAF},
		Monotonicity: true,
	}
}

// Violation kinds.
const (
	KindUnsound          = "unsound"           // disproved a manifested dependence
	KindMonotonicity     = "monotonicity"      // a richer scheme lost a resolution
	KindDriftParallel    = "drift-parallel"    // parallel answers != serial
	KindDriftShared      = "drift-shared"      // shared-cache answers != serial
	KindDriftServer      = "drift-server"      // HTTP answers != serial
	KindDriftFleet       = "drift-fleet"       // fleet answers != single instance
	KindDriftPersist     = "drift-persist"     // warm-restart answers != cold instance
	KindDriftElastic     = "drift-elastic"     // answers drift across a live join/leave
	KindMetamorphic      = "metamorphic"       // transform changed preserved answers
	KindTransformInvalid = "transform-invalid" // transform changed observable behavior (harness bug)
	KindRecoveryTaint    = "recovery-taint"    // quarantined speculation still reaches answers
	KindRecoveryDrift    = "recovery-drift"    // recovered answers != fault-free reference
	KindRecoveryUnsound  = "recovery-unsound"  // recovered answers disprove a manifested dep
	KindExecDiverge      = "exec-diverge"      // speculative-parallel result != serial
	KindExecMisspec      = "exec-misspec"      // honest plan misspeculated on its training input
	KindExecStuck        = "exec-stuck"        // chaos execution never converged to misspec-free
)

// Violation is one oracle finding.
type Violation struct {
	Kind      string
	Scheme    string
	Transform string // metamorphic findings only
	Loop      string
	Detail    string
}

func (v Violation) String() string {
	var b strings.Builder
	b.WriteString(v.Kind)
	if v.Scheme != "" {
		fmt.Fprintf(&b, " [%s]", v.Scheme)
	}
	if v.Transform != "" {
		fmt.Fprintf(&b, " <%s>", v.Transform)
	}
	if v.Loop != "" {
		fmt.Fprintf(&b, " %s", v.Loop)
	}
	b.WriteString(": ")
	b.WriteString(v.Detail)
	return b.String()
}

const maxViolationsPerTrial = 50

// Report is the outcome of one trial.
type Report struct {
	Seed   int64 // CheckSeed only; 0 for CheckProgram
	Name   string
	Source string
	// HotLoops and Queries size the trial (for nonvacuity assertions).
	HotLoops int
	Queries  int
	// TransformsApplied counts transforms that applied to this program;
	// ComparedLoops counts loops whose answers were compared across a
	// transform (a transform can apply yet leave a marginal loop out of
	// the transformed hot set).
	TransformsApplied int
	ComparedLoops     int
	// AppliedByTransform counts applications per transform name (nil
	// until the first transform applies).
	AppliedByTransform map[string]int
	// ExecSpecIters counts iterations the execution pass actually ran
	// speculatively; ExecMisspecs counts chaos-forced misspeculations it
	// recovered from. Both are nonvacuity signals when the pass is on.
	ExecSpecIters int64
	ExecMisspecs  int
	// ChaosLies counts distinct injected misspeculations the recovery pass
	// observed and quarantined; RecoveryRounds counts observe→re-analyze
	// iterations it took to reach a chaos-free fixpoint. Both are zero when
	// the pass is off — and a nonvacuity signal when it is on.
	ChaosLies      int
	RecoveryRounds int
	// PersistWarmHits counts answers the warm-restart pass served from a
	// reloaded snapshot; PersistBlocked counts revoked entries the reload
	// physically refused; PersistSurvivingLoops counts reloaded loop
	// entries a fresh clean session can match (each seed with any must
	// show warm hits). Nonvacuity signals for the persist pass.
	PersistWarmHits       int64
	PersistBlocked        int64
	PersistSurvivingLoops int
	// ElasticWarmHits counts loop-lookaside hits the joined backend served
	// after a live membership change. Nonvacuity signal for the elastic
	// pass: byte identity must come from the streamed state, not silent
	// recomputation.
	ElasticWarmHits int64
	// Evictions counts the entries the shards of every fleet backend the
	// passes booted evicted (fleet.local.evicted, summed).
	Evictions  int64
	Violations []Violation
}

// Failed reports whether any check failed.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// HasViolation reports whether a violation of the given kind was found.
func (r *Report) HasViolation(kind string) bool {
	for _, v := range r.Violations {
		if v.Kind == kind {
			return true
		}
	}
	return false
}

func (r *Report) violate(v Violation) {
	if len(r.Violations) < maxViolationsPerTrial {
		r.Violations = append(r.Violations, v)
	}
}

// Summary renders the failure in one block: every violation plus the
// program that triggered it.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "oracle: %d violation(s) on %s (seed %d, %d hot loops, %d queries)\n",
		len(r.Violations), r.Name, r.Seed, r.HotLoops, r.Queries)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	b.WriteString(r.Source)
	return b.String()
}

// CheckSeed generates the random program of one mcgen seed and checks it.
func CheckSeed(cfg Config, seed int64) (*Report, error) {
	src := mcgen.New(seed).Program()
	rep, err := CheckProgram(cfg, fmt.Sprintf("seed%d", seed), src)
	if rep != nil {
		rep.Seed = seed
	}
	return rep, err
}

// CheckProgram runs every configured check against one MC program. The
// returned error reports a program that cannot be compiled, profiled, or
// executed — a caller bug, not an analysis finding; analysis findings are
// Violations in the report.
func CheckProgram(cfg Config, name, src string) (*Report, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	rep := &Report{Name: name, Source: src}
	base, err := analyzeSource(cfg, name, src)
	if err != nil {
		return nil, err
	}
	rep.HotLoops = len(base.hot)

	for _, scheme := range cfg.Schemes {
		checkSoundness(rep, base, scheme)
	}
	if cfg.Monotonicity {
		checkMonotonicity(rep, base)
	}
	for _, scheme := range cfg.Schemes {
		if cfg.Parallel {
			checkParallelDrift(cfg, rep, base, scheme, false)
		}
		if cfg.SharedCache {
			checkParallelDrift(cfg, rep, base, scheme, true)
		}
	}
	if cfg.ExtraModules == nil && (cfg.Server || cfg.Fleet || cfg.Persist || cfg.Elastic) {
		gs := collectGolds(cfg, rep, base)
		if cfg.Server {
			checkServerDrift(rep, base, gs)
		}
		if cfg.Fleet || cfg.Elastic {
			checkFleetDrift(cfg, rep, gs)
		}
		if cfg.Persist {
			checkPersist(cfg, rep, gs)
		}
	}
	if cfg.Recovery {
		for _, scheme := range cfg.Schemes {
			checkRecovery(cfg, rep, base, scheme)
		}
	}
	if cfg.Execution {
		for _, scheme := range cfg.Schemes {
			checkExecution(cfg, rep, base, scheme)
		}
	}
	for _, tr := range cfg.Transforms {
		checkTransform(cfg, rep, base, tr)
	}
	return rep, nil
}

// analysis is one compiled, profiled, serially-analyzed program.
type analysis struct {
	cfg    Config
	name   string
	src    string
	sys    *scaf.System
	client *pdg.Client
	ms     *memspec.MemSpec
	hot    []*cfg.Loop
	// serial holds each scheme's serial answers — the canonical result
	// every other path is compared against.
	serial map[scaf.Scheme][]*pdg.LoopResult
	wire   map[scaf.Scheme][]server.WireLoopResult
	output []string // observable behavior of the training run
	memDig uint64   // final-memory digest of the training run
}

// orchOptions builds the per-orchestrator option list, minting fresh extra
// modules on every call so no state is shared across orchestrators.
func orchOptions(cfg Config) []scaf.OrchOption {
	var opts []scaf.OrchOption
	if cfg.ExtraModules != nil {
		opts = append(opts, scaf.WithExtraModules(cfg.ExtraModules()...))
	}
	return opts
}

func analyzeSource(cfg Config, name, src string) (*analysis, error) {
	hot := cfg.HotLoops
	sys, err := scaf.Load(name, src, scaf.Options{HotLoops: &hot})
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", name, err)
	}
	run, err := interp.Run(sys.Mod, interp.Options{})
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: observable run: %w", name, err)
	}
	a := &analysis{
		cfg:    cfg,
		name:   name,
		src:    src,
		sys:    sys,
		client: sys.Client(),
		ms:     sys.MemSpec(),
		hot:    sys.HotLoops(),
		serial: map[scaf.Scheme][]*pdg.LoopResult{},
		wire:   map[scaf.Scheme][]server.WireLoopResult{},
		output: run.Output,
		memDig: run.Mem.Digest(),
	}
	for _, scheme := range cfg.Schemes {
		o := sys.Orchestrator(scheme, orchOptions(cfg)...)
		results := make([]*pdg.LoopResult, 0, len(a.hot))
		wires := make([]server.WireLoopResult, 0, len(a.hot))
		for _, l := range a.hot {
			res := a.client.ResolveLoop(o, l)
			results = append(results, res)
			wires = append(wires, server.EncodeLoopResult(res))
		}
		a.serial[scheme] = results
		a.wire[scheme] = wires
	}
	return a, nil
}

// usesValuePred reports whether any option of the response is predicated
// on a value-prediction assertion. Value prediction is the one speculation
// that may legitimately remove dependences that manifested (the predicted
// load is replaced by its constant, so the flow edge disappears).
func usesValuePred(r core.ModRefResponse) bool {
	for _, o := range r.Options {
		for _, a := range o.Asserts {
			if a.Module == spec.NameValuePred {
				return true
			}
		}
	}
	return false
}

// checkSoundness cross-checks every dependence the scheme disproves
// against the ground truth the memory-dependence profiler recorded
// during System.MemSpec's run, a re-execution identical to the one the
// speculation was trained on.
func checkSoundness(rep *Report, a *analysis, scheme scaf.Scheme) {
	rep.Queries += countQueries(a.serial[scheme])
	soundnessViolations(rep, a, scheme, a.serial[scheme], KindUnsound)
}

func countQueries(results []*pdg.LoopResult) int {
	n := 0
	for _, res := range results {
		n += len(res.Queries)
	}
	return n
}

// soundnessViolations applies the manifested-dependence predicate to one
// result set, reporting failures under the given violation kind.
func soundnessViolations(rep *Report, a *analysis, scheme scaf.Scheme, results []*pdg.LoopResult, kind string) {
	for i, res := range results {
		l := a.hot[i]
		for _, q := range res.Queries {
			if !q.NoDep {
				continue
			}
			if a.ms.NoDep(l, q.I1, q.I2, q.Rel) {
				continue // never manifested: consistent
			}
			if scheme != scaf.SchemeCAF && usesValuePred(q.Resp) {
				continue // value prediction may remove real deps
			}
			rep.violate(Violation{
				Kind: kind, Scheme: scheme.String(), Loop: l.Name(),
				Detail: fmt.Sprintf("disproved manifested dep %s -> %s (%s) via %v",
					q.I1, q.I2, q.Rel, q.Resp.Contribs),
			})
		}
	}
}

// checkMonotonicity: per-query resolutions must be monotone across
// CAF ⊆ Confluence ⊆ SCAF — a richer scheme never loses a resolution.
func checkMonotonicity(rep *Report, a *analysis) {
	caf, okC := a.serial[scaf.SchemeCAF]
	conf, okF := a.serial[scaf.SchemeConfluence]
	col, okS := a.serial[scaf.SchemeSCAF]
	if !okC || !okF || !okS {
		return
	}
	for i := range a.hot {
		rCAF := caf[i].ByKey()
		rConf := conf[i].ByKey()
		for _, q := range col[i].Queries {
			k := pdg.Key{I1: q.I1, I2: q.I2, Rel: q.Rel}
			if rCAF[k] != nil && rCAF[k].NoDep && !(rConf[k] != nil && rConf[k].NoDep) {
				rep.violate(Violation{Kind: KindMonotonicity, Loop: a.hot[i].Name(),
					Detail: fmt.Sprintf("confluence lost a CAF resolution: %s -> %s (%s)", q.I1, q.I2, q.Rel)})
			}
			if rConf[k] != nil && rConf[k].NoDep && !q.NoDep {
				rep.violate(Violation{Kind: KindMonotonicity, Loop: a.hot[i].Name(),
					Detail: fmt.Sprintf("SCAF lost a confluence resolution: %s -> %s (%s)", q.I1, q.I2, q.Rel)})
			}
		}
	}
}

// wireJSON renders wire results to canonical bytes for drift comparison.
func wireJSON(w []server.WireLoopResult) []byte {
	b, err := json.Marshal(w)
	if err != nil { // struct-only payload: cannot happen
		panic(err)
	}
	return b
}

// checkParallelDrift re-resolves through pdg.ParallelClient — optionally
// with a worker-shared memo cache — and flags any drift from serial.
func checkParallelDrift(cfg Config, rep *Report, a *analysis, scheme scaf.Scheme, shared bool) {
	kind := KindDriftParallel
	opts := orchOptions(cfg)
	if shared {
		kind = KindDriftShared
		opts = append(opts, scaf.WithSharedCache(core.NewSharedCache()))
	}
	factory := func() *core.Orchestrator { return a.sys.Orchestrator(scheme, opts...) }
	pc := pdg.NewParallelClient(a.client, cfg.Workers, factory)
	results, _ := pc.AnalyzeLoops(a.hot)
	for i, res := range results {
		got := wireJSON([]server.WireLoopResult{server.EncodeLoopResult(res)})
		want := wireJSON(a.wire[scheme][i : i+1])
		if !bytes.Equal(got, want) {
			rep.violate(Violation{Kind: kind, Scheme: scheme.String(), Loop: a.hot[i].Name(),
				Detail: fmt.Sprintf("answers diverge from serial:\n  serial:   %s\n  parallel: %s", want, got)})
		}
	}
}

// chaosSeed derives a deterministic fault-injection seed from the trial
// name (FNV-1a) so distinct programs see distinct, reproducible lie
// patterns.
func chaosSeed(name string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h
}

// chaosAssertKeys harvests the wire identities of every chaos assertion
// that reached an answer — exactly the set a production client would
// report back through /observe after watching those speculations
// misspeculate at runtime.
func chaosAssertKeys(results []*pdg.LoopResult) []string {
	seen := map[string]bool{}
	for _, res := range results {
		for _, q := range res.Queries {
			for _, o := range q.Resp.Options {
				for _, as := range o.Asserts {
					if as.Module == recovery.NameChaos {
						seen[as.String()] = true
					}
				}
			}
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// analyzeWith re-analyzes every hot loop serially under one orchestrator
// built with the given options.
func analyzeWith(a *analysis, scheme scaf.Scheme, opts []scaf.OrchOption) []*pdg.LoopResult {
	o := a.sys.Orchestrator(scheme, opts...)
	results := make([]*pdg.LoopResult, 0, len(a.hot))
	for _, l := range a.hot {
		results = append(results, a.client.ResolveLoop(o, l))
	}
	return results
}

// checkRecovery drives the misspeculation-recovery loop under fault
// injection for one scheme. A chaos module confidently lies on a fraction
// of queries; every lie that reaches an answer is quarantined — the same
// action the serving daemon takes on POST /observe — and the loops are
// re-analyzed until the answers are chaos-free (later rounds can surface
// lies that earlier, cheaper lies had shadowed). The recovered answers
// must be byte-identical to the fault-free serial reference — recovery is
// exclusion, not approximation — and must stay sound against profiled
// ground truth. A second run withdraws the whole module up front (the
// panic-isolation path) and must match the reference immediately.
func checkRecovery(cfg Config, rep *Report, a *analysis, scheme scaf.Scheme) {
	const maxRounds = 12
	chaos := &recovery.Chaos{Seed: chaosSeed(a.name), WrongEvery: 2}
	opts := func(q *recovery.Quarantine) []scaf.OrchOption {
		base := orchOptions(cfg)
		out := make([]scaf.OrchOption, 0, len(base)+2)
		out = append(out, base...)
		return append(out, scaf.WithExtraModules(chaos), scaf.WithModuleWrapper(recovery.Wrapper(q)))
	}

	q := recovery.New()
	results := analyzeWith(a, scheme, opts(q))
	lies := chaosAssertKeys(results)
	rounds := 0
	for len(lies) > 0 && rounds < maxRounds {
		for _, k := range lies {
			if q.AddAssert(k, "oracle: observed misspeculation") {
				rep.ChaosLies++
			}
		}
		results = analyzeWith(a, scheme, opts(q))
		lies = chaosAssertKeys(results)
		rounds++
	}
	rep.RecoveryRounds += rounds
	if len(lies) > 0 {
		rep.violate(Violation{Kind: KindRecoveryTaint, Scheme: scheme.String(),
			Detail: fmt.Sprintf("%d chaos assertions still reach answers after %d quarantine rounds: %v",
				len(lies), rounds, lies)})
		return
	}
	compareRecovered(rep, a, scheme, results,
		fmt.Sprintf("after %d assertion-quarantine rounds", rounds))
	soundnessViolations(rep, a, scheme, results, KindRecoveryUnsound)

	qm := recovery.New()
	qm.AddModule(recovery.NameChaos, "oracle: module withdrawn")
	withdrawn := analyzeWith(a, scheme, opts(qm))
	compareRecovered(rep, a, scheme, withdrawn, "with the chaos module withdrawn")
	soundnessViolations(rep, a, scheme, withdrawn, KindRecoveryUnsound)
}

// execDiverged compares a speculative-parallel execution against the
// serial training run, byte-for-byte: observable output line by line, and
// the final memory image by digest.
func execDiverged(a *analysis, r *runtime.Report) string {
	if strings.Join(r.Output, "\n") != strings.Join(a.output, "\n") {
		return fmt.Sprintf("output diverged:\n  serial:      %v\n  speculative: %v", a.output, r.Output)
	}
	if r.MemDigest != a.memDig {
		return fmt.Sprintf("final memory diverged (digest %#x, serial %#x)", r.MemDigest, a.memDig)
	}
	return ""
}

// checkExecution runs the execution-equivalence pass for one scheme.
//
// Honest pass: the scheme's plans drive the speculative-parallel runtime
// and the result must be byte-equal to serial — and must not misspeculate,
// since the plan was trained on this very input (KindExecMisspec). Chaos
// pass: a seeded fault-injection module lies its way into the plans,
// forcing real misspeculations; every recovery round
// must still end byte-equal (abort → quarantine → serial re-execution is
// exclusion, not approximation), and rerunning with the accumulated
// quarantine must reach a misspeculation-free execution within a bounded
// number of rounds.
func checkExecution(cfg Config, rep *Report, a *analysis, scheme scaf.Scheme) {
	const maxExecRounds = 10
	execCfg := func(q *recovery.Quarantine, sc *core.SharedCache) runtime.Config {
		return runtime.Config{Workers: cfg.Workers, MinIters: 2, Quarantine: q, Cache: sc}
	}

	hq := recovery.New()
	honest, err := a.sys.ExecutePlan(scheme, execCfg(hq, nil), orchOptions(cfg)...)
	if err != nil {
		rep.violate(Violation{Kind: KindExecDiverge, Scheme: scheme.String(),
			Detail: fmt.Sprintf("speculative execution failed: %v", err)})
		return
	}
	if d := execDiverged(a, honest); d != "" {
		rep.violate(Violation{Kind: KindExecDiverge, Scheme: scheme.String(), Detail: d})
	}
	if honest.Misspecs > 0 && cfg.ExtraModules == nil {
		// Value prediction is the one speculation that may legitimately
		// misspeculate on the training input (the runtime reads real memory
		// where the plan assumed a predicted constant, and validation
		// rightly catches it). Any other attribution — or an abort with
		// nothing to attribute — means the plan disproved a manifested
		// dependence it had no speculative license for.
		keys := hq.AssertKeys()
		if len(keys) == 0 {
			rep.violate(Violation{Kind: KindExecMisspec, Scheme: scheme.String(),
				Detail: fmt.Sprintf("plan misspeculated %d time(s) on its training input with nothing to attribute", honest.Misspecs)})
		}
		for _, k := range keys {
			if !strings.HasPrefix(k, spec.NameValuePred+"/") {
				rep.violate(Violation{Kind: KindExecMisspec, Scheme: scheme.String(),
					Detail: fmt.Sprintf("training-input misspeculation attributed to non-value-pred assertion %s", k)})
			}
		}
	}
	rep.ExecSpecIters += honest.SpecIters

	chaos := &recovery.Chaos{Seed: chaosSeed(a.name + "/" + scheme.String()), WrongEvery: 2}
	q := recovery.New()
	sc := core.NewSharedCache()
	for round := 1; ; round++ {
		r, err := a.sys.ExecutePlan(scheme, execCfg(q, sc),
			append(orchOptions(cfg), scaf.WithExtraModules(chaos))...)
		if err != nil {
			rep.violate(Violation{Kind: KindExecDiverge, Scheme: scheme.String(),
				Detail: fmt.Sprintf("chaos round %d: execution failed: %v", round, err)})
			return
		}
		if d := execDiverged(a, r); d != "" {
			rep.violate(Violation{Kind: KindExecDiverge, Scheme: scheme.String(),
				Detail: fmt.Sprintf("chaos round %d: %s", round, d)})
			return
		}
		rep.ExecMisspecs += int(r.Misspecs)
		if r.Misspecs == 0 {
			return
		}
		if round >= maxExecRounds {
			rep.violate(Violation{Kind: KindExecStuck, Scheme: scheme.String(),
				Detail: fmt.Sprintf("still misspeculating after %d chaos rounds (%d quarantined asserts)",
					round, len(q.AssertKeys()))})
			return
		}
	}
}

// compareRecovered byte-compares recovered answers against the fault-free
// serial reference, per loop, through the wire encoding.
func compareRecovered(rep *Report, a *analysis, scheme scaf.Scheme, results []*pdg.LoopResult, how string) {
	for i, res := range results {
		got := wireJSON([]server.WireLoopResult{server.EncodeLoopResult(res)})
		want := wireJSON(a.wire[scheme][i : i+1])
		if !bytes.Equal(got, want) {
			rep.violate(Violation{Kind: KindRecoveryDrift, Scheme: scheme.String(), Loop: a.hot[i].Name(),
				Detail: fmt.Sprintf("answers %s diverge from fault-free reference:\n  reference: %s\n  recovered: %s",
					how, want, got)})
		}
	}
}

// goldSet is what one cold single instance serves for the program: the
// session create, then per scheme the analyze batch and up to
// fleetQueryCap of its queries, in that order. Each seed boots one such
// reference; the server, fleet, elastic and persist passes all check
// against its one gold set.
type goldSet struct {
	create       []byte // the create request body
	createStatus int
	createReply  []byte
	info         server.SessionInfo // ID is empty unless the create succeeded
	golds        []gold
	// results holds each scheme's decoded analyze results.
	results map[scaf.Scheme][]server.WireLoopResult
}

// gold is one request the reference served and its reply.
type gold struct {
	scheme scaf.Scheme
	loop   string // queries only
	query  bool
	path   string
	body   []byte
	status int
	want   []byte
}

// fleetQueryCap bounds the per-scheme query set replayed through the
// serving passes; random oracle programs rarely exceed it.
const fleetQueryCap = 64

// collectGolds loads the program into a fresh reference instance and
// records its replies. Replies the reference cannot decode itself are
// drift-server findings.
func collectGolds(cfg Config, rep *Report, a *analysis) *goldSet {
	srv := server.New(server.Config{Workers: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	h := srv.Handler()
	gs := &goldSet{results: map[scaf.Scheme][]server.WireLoopResult{}}
	gs.create, _ = json.Marshal(map[string]any{
		"name": a.name, "source": a.src, "plan": "off",
		"hot_loops": map[string]float64{
			"min_weight_frac": cfg.HotLoops.MinWeightFrac,
			"min_avg_iters":   cfg.HotLoops.MinAvgIters,
		},
	})
	gs.createStatus, gs.createReply = do(h, "POST", "/sessions", gs.create)
	if gs.createStatus != http.StatusCreated {
		return gs
	}
	var info server.SessionInfo
	if err := json.Unmarshal(gs.createReply, &info); err != nil {
		rep.violate(Violation{Kind: KindDriftServer, Detail: fmt.Sprintf("bad session info: %v", err)})
		return gs
	}
	gs.info = info
	for _, scheme := range cfg.Schemes {
		reqBody, _ := json.Marshal(map[string]any{"scheme": scheme.String()})
		path := "/sessions/" + info.ID + "/analyze"
		st, body := do(h, "POST", path, reqBody)
		gs.golds = append(gs.golds, gold{scheme: scheme, path: path, body: reqBody, status: st, want: body})
		if st != http.StatusOK {
			continue
		}
		var resp server.AnalyzeResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			rep.violate(Violation{Kind: KindDriftServer, Scheme: scheme.String(),
				Detail: fmt.Sprintf("bad analyze response: %v", err)})
			continue
		}
		gs.results[scheme] = resp.Results
		n := 0
		for _, lr := range resp.Results {
			for _, q := range lr.Queries {
				if n >= fleetQueryCap {
					break
				}
				n++
				qb, _ := json.Marshal(server.QueryRequest{
					Scheme: scheme.String(), Loop: lr.Loop, I1: q.I1, I2: q.I2, Rel: q.Rel,
				})
				qpath := "/sessions/" + info.ID + "/query"
				qst, qbody := do(h, "POST", qpath, qb)
				gs.golds = append(gs.golds, gold{scheme: scheme, loop: lr.Loop, query: true,
					path: qpath, body: qb, status: qst, want: qbody})
			}
		}
	}
	return gs
}

// checkServerDrift compares the reference instance's HTTP answers —
// byte-level, through the same wire encoding as the serial results —
// against the library's, for every scheme.
func checkServerDrift(rep *Report, a *analysis, gs *goldSet) {
	if gs.createStatus != http.StatusCreated {
		rep.violate(Violation{Kind: KindDriftServer,
			Detail: fmt.Sprintf("session load failed: status %d: %s", gs.createStatus, gs.createReply)})
		return
	}
	if gs.info.ID == "" {
		return // the unreadable session info is already reported
	}
	if len(gs.info.HotLoops) != len(a.hot) {
		rep.violate(Violation{Kind: KindDriftServer,
			Detail: fmt.Sprintf("server sees %d hot loops, library sees %d", len(gs.info.HotLoops), len(a.hot))})
		return
	}
	for _, g := range gs.golds {
		if g.query {
			continue
		}
		if g.status != http.StatusOK {
			rep.violate(Violation{Kind: KindDriftServer, Scheme: g.scheme.String(),
				Detail: fmt.Sprintf("analyze failed: status %d: %s", g.status, g.want)})
			continue
		}
		results, ok := gs.results[g.scheme]
		if !ok {
			continue // the unreadable reply is already reported
		}
		got := wireJSON(results)
		want := wireJSON(a.wire[g.scheme])
		if !bytes.Equal(got, want) {
			rep.violate(Violation{Kind: KindDriftServer, Scheme: g.scheme.String(),
				Detail: fmt.Sprintf("HTTP answers diverge from library:\n  library: %s\n  http:    %s", want, got)})
		}
	}
}

// do drives the in-process handler with one request, no network.
func do(h http.Handler, method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}
