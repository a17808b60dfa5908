// Command perfbench is the repository's benchmark. It runs one seeded
// workload in one process and prints a run record followed, as its last
// line, by one JSON object with the run's metrics.
//
//	bash perfbench/run.sh --workload fleet-warm --seed 1 --seconds 15 --trace 0
//
// Run it from the root of a checkout (perfbench/run.sh builds and runs
// it there). Workloads:
//
//   - fleet-warm: a router and two fleet-peered backends whose caches
//     answer every request.
//   - fleet-churn: the same fleet, made durable, with session create,
//     analyze, query and delete cycles on generated programs.
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the workload untraced and then traced on the same inputs, prints
// the tracing overhead on every end-to-end metric, writes the traced
// run's spans as JSONL and prints the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// endToEnd lists the metrics a user of the system sees, in print order.
// The run record prints them all; the JSON result carries the gated ones,
// which BENCHMARK.json declares with a bound. The tails are printed only:
// on a 2-vCPU VM shared with other tenants their run-to-run spread
// (0.1-0.35 of the median) is wider than any bound a gate can use.
var endToEnd = []struct {
	name, unit string
	gated      bool
}{
	{"setup_s", "s", true},
	{"peak_rss_mb", "MiB", true},
	{"create_ms", "ms", true},
	{"create_p99_ms", "ms", false},
	{"analyze_ms", "ms", true},
	{"analyze_p99_ms", "ms", false},
	{"query_us", "us", true},
	{"query_p99_us", "us", false},
	{"ops_per_s", "1/s", true},
}

// perLayer lists the per-layer metrics of a traced run. Times are means
// per call, so self times along one request add up to its total.
var perLayer = []struct{ name, unit string }{
	{"lower.compile_ms", "ms"}, {"lower.allocs", "allocs/call"},
	{"cfg.build_ms", "ms"},
	{"interp.run_ms", "ms"}, {"interp.steps", "count"}, {"interp.allocs", "allocs/call"},
	{"profile.collect_ms", "ms"}, {"profile.observe_ms", "ms"}, {"profile.allocs", "allocs/call"},
	{"profile.tracker_ms", "ms"}, {"profile.edge_ms", "ms"}, {"profile.value_ms", "ms"},
	{"profile.pointsto_ms", "ms"}, {"profile.residue_ms", "ms"}, {"profile.lifetime_ms", "ms"},
	{"profile.memdep_ms", "ms"},
	{"core.orch_new_us", "us"}, {"core.top_queries", "count"}, {"core.premise_queries", "count"},
	{"core.module_evals", "count"}, {"core.cache_hits", "count"}, {"core.evals_per_query", "evals/query"},
	{"core.allocs_per_query", "allocs/query"},
	{"pdg.resolve_caf_ms", "ms"}, {"pdg.resolve_confluence_ms", "ms"}, {"pdg.resolve_scaf_ms", "ms"},
	{"pdg.plan_ms", "ms"},
	{"validate.check_ms", "ms"},
	{"server.query_us", "us"}, {"server.analyze_ms", "ms"}, {"server.create_ms", "ms"},
	{"server.delete_us", "us"}, {"server.coalesce_hits", "count"}, {"server.fleet_loop_hits", "count"},
	{"server.module_evals", "count"},
	{"router.query_self_us", "us"}, {"router.analyze_self_ms", "ms"}, {"router.create_self_ms", "ms"},
	{"router.fanout_loops", "count"}, {"router.proxied", "count"},
	{"fleet.rpc_us", "us"}, {"fleet.rpcs", "count"}, {"fleet.local_hits", "count"},
	{"fleet.remote_hits", "count"}, {"fleet.misses", "count"}, {"fleet.hit_ratio", "ratio"},
	{"persist.journal_records", "count"}, {"persist.snapshot_saves", "count"},
	{"http.client_us", "us"},
}

// setupRounds is how many times a pass sets its workload up; setup_s is
// the median round, so one disturbed round does not move it. fleet-warm
// also takes its session-create samples from these rounds.
const setupRounds = 8

// runConfig is what one pass of a workload is given.
type runConfig struct {
	seed    int64
	seconds int
	tr      *Tracer // nil: untraced
	work    string  // scratch directory inside the checkout
}

// report is what one pass of a workload measured and checked.
type report struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int64
	failed    int64
	failures  []string // the first few failed checks, for the record
	notes     []string // run-record lines: inputs, sample counts, tails
	// counts are deterministic work counts that must not depend on
	// whether the run was traced.
	counts map[string]int64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}, counts: map[string]int64{}}
}

// check counts one operation whose output was checked.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
	return ok
}

// fail counts a failure of an operation already counted as attempted.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*report, error){
	"fleet-warm":  runWarm,
	"fleet-churn": runChurn,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "fleet-warm or fleet-churn")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 10, "sizes the fixed work set (its nominal duration on 2 vCPUs)")
	trace := flag.Int("trace", 0, "1: also run traced and print per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "perfbench-run-")
	if err != nil {
		return fmt.Errorf("making a scratch directory: %w", err)
	}
	defer os.RemoveAll(work)
	cfg := runConfig{seed: seed, seconds: seconds, work: work}

	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", workload, seed, seconds, trace)
	fmt.Println(hostLine(root))

	c0, err := readCPUTicks()
	if err != nil {
		return err
	}
	base, err := fn(cfg)
	if err != nil {
		return err
	}
	c1, err := readCPUTicks()
	if err != nil {
		return err
	}
	printReport("run", base, stealPct(c0, c1))
	res := resultJSON{
		Correct: base.failed == 0, Attempted: base.attempted, Failed: base.failed,
		Metrics: map[string]metricJSON{},
	}
	if trace == 0 {
		for _, m := range endToEnd {
			if m.gated {
				res.Metrics[m.name] = metricJSON{Value: base.e2e[m.name], Unit: m.unit}
			}
		}
		return emit(res)
	}

	// Without the reset, the traced run's peak would include the untraced
	// run's.
	rssErr := resetPeakRSS()
	cfg.tr = newTracer()
	traced, err := fn(cfg)
	if err != nil {
		return err
	}
	c2, err := readCPUTicks()
	if err != nil {
		return err
	}
	printReport("traced run", traced, stealPct(c1, c2))
	for _, m := range endToEnd {
		if m.name == "peak_rss_mb" && rssErr != nil {
			fmt.Printf("overhead %s not comparable: resetting the peak failed: %v\n", m.name, rssErr)
			continue
		}
		a, b := base.e2e[m.name], traced.e2e[m.name]
		fmt.Printf("overhead %s untraced=%.6g traced=%.6g delta=%+.6g %s (%+.2f%%)\n",
			m.name, a, b, b-a, m.unit, 100*(b-a)/a)
	}
	// Deterministic work must not depend on tracing.
	var keys []string
	for k := range base.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		traced.check(base.counts[k] == traced.counts[k],
			"reconcile: %s untraced=%d traced=%d", k, base.counts[k], traced.counts[k])
		fmt.Printf("reconcile %s untraced=%d traced=%d\n", k, base.counts[k], traced.counts[k])
	}
	path := filepath.Join(root, ".bench_build", fmt.Sprintf("perfbench-trace-%s-%d.jsonl", workload, seed))
	if err := cfg.tr.writeJSONL(path); err != nil {
		return err
	}
	fmt.Printf("spans %d written to %s\n", len(cfg.tr.spans), strings.TrimPrefix(path, root+string(filepath.Separator)))
	res.Correct = base.failed == 0 && traced.failed == 0
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	for _, m := range perLayer {
		v, ok := traced.layers[m.name]
		if !ok {
			return fmt.Errorf("workload %s measured no %s", workload, m.name)
		}
		res.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
		fmt.Printf("layer %s=%.6g %s\n", m.name, v, m.unit)
	}
	return emit(res)
}

func printReport(label string, r *report, steal float64) {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, m := range endToEnd {
		fmt.Printf("%s %s=%.6g %s\n", label, m.name, r.e2e[m.name], m.unit)
	}
	fmt.Printf("%s ops attempted=%d failed=%d cpu_steal_pct=%.2f\n", label, r.attempted, r.failed, steal)
	for _, f := range r.failures {
		fmt.Printf("%s FAILED %s\n", label, f)
	}
}

func emit(res resultJSON) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}
