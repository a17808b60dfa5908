// Command scaf-oracle fuzzes the analysis stack with the differential
// oracle: random MC programs are checked for soundness against profiled
// ground truth, for answer drift across execution paths (serial, parallel,
// shared-cache, HTTP), and for answer stability under semantics-preserving
// metamorphic transforms. Failures can be shrunk to minimal reproducers.
//
// Usage:
//
//	scaf-oracle -seeds 200                 # sweep 200 seeds, full checks
//	scaf-oracle -seeds 2000 -start 5000    # a different seed window
//	scaf-oracle -seeds 200 -shrink         # also reduce failures to repros
//	scaf-oracle -run repro.mc              # re-check one program file
//	scaf-oracle -fast -seeds 1000          # soundness+monotonicity only
//	scaf-oracle -fast -recovery -seeds 500 # plus misspeculation recovery
//	scaf-oracle -fast -fleet -cache-bytes 1024 -seeds 25
//	                                       # fleet pass with evicting shards
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"scaf/internal/oracle"
)

func main() {
	seeds := flag.Int("seeds", 200, "number of mcgen seeds to sweep")
	start := flag.Int64("start", 1, "first seed of the sweep")
	shrink := flag.Bool("shrink", false, "reduce each failing program to a minimal reproducer")
	out := flag.String("out", "testdata/repros", "directory for shrunk reproducers")
	run := flag.String("run", "", "check one MC program file instead of sweeping seeds")
	fast := flag.Bool("fast", false, "soundness and monotonicity only (no drift or metamorphic checks)")
	recov := flag.Bool("recovery", false, "force the misspeculation-recovery pass (fault injection + quarantine + equivalence); always on without -fast")
	execute := flag.Bool("execute", false, "force the execution-equivalence pass (speculative-parallel runtime vs serial, plus chaos-forced misspeculation recovery); always on without -fast")
	fleetPass := flag.Bool("fleet", false, "force the fleet byte-identity pass (router + 2 backends vs a single cold instance); always on without -fast")
	persistPass := flag.Bool("persist", false, "force the warm-restart pass (snapshot, restart, byte-compare against a cold instance); always on without -fast")
	elasticPass := flag.Bool("elastic", false, "force the live-membership pass (join and leave under concurrent fire, byte-compare against the static fleet); always on without -fast")
	transforms := flag.String("transforms", "all", `metamorphic transforms: "all", "none", or a comma-separated subset (rename,deadcode,reorder,peel)`)
	cacheBytes := flag.Int64("cache-bytes", 0, "shard budget of every fleet backend the fleet, persist and elastic passes boot (0: the server default); above 0, a seed that evicts nothing fails")
	verbose := flag.Bool("v", false, "log every seed, not just failures and progress")
	flag.Parse()

	cfg := oracle.FullConfig()
	if *fast {
		cfg = oracle.FastConfig()
	}
	if *recov {
		cfg.Recovery = true
	}
	if *execute {
		cfg.Execution = true
	}
	if *fleetPass {
		cfg.Fleet = true
	}
	if *persistPass {
		cfg.Persist = true
	}
	if *elasticPass {
		cfg.Elastic = true
	}
	cfg.CacheBytes = *cacheBytes
	switch *transforms {
	case "all":
	case "none":
		cfg.Transforms = nil
	default:
		cfg.Transforms = nil
		for _, name := range strings.Split(*transforms, ",") {
			tr, ok := oracle.TransformByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown transform %q\n", name)
				os.Exit(2)
			}
			cfg.Transforms = append(cfg.Transforms, tr)
		}
	}

	if *run != "" {
		os.Exit(runOne(cfg, *run, *shrink, *out))
	}

	failures := 0
	var queries, applied, compared, lies, execMisspecs, survivingLoops int
	var specIters, warmHits, elasticHits, evictions int64
	for i := 0; i < *seeds; i++ {
		seed := *start + int64(i)
		rep, err := oracle.CheckSeed(cfg, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: %v\n", seed, err)
			os.Exit(2) // generator or harness bug, not an analysis finding
		}
		queries += rep.Queries
		applied += rep.TransformsApplied
		compared += rep.ComparedLoops
		lies += rep.ChaosLies
		specIters += rep.ExecSpecIters
		execMisspecs += rep.ExecMisspecs
		warmHits += rep.PersistWarmHits
		survivingLoops += rep.PersistSurvivingLoops
		elasticHits += rep.ElasticWarmHits
		evictions += rep.Evictions
		if *verbose {
			fmt.Printf("seed %d: %d hot loops, %d queries, %d transforms\n",
				seed, rep.HotLoops, rep.Queries, rep.TransformsApplied)
		}
		if rep.Failed() {
			failures++
			fmt.Println(rep.Summary())
			if *shrink {
				shrinkAndWrite(cfg, rep, *out, fmt.Sprintf("seed%d", seed))
			}
		} else if *cacheBytes > 0 && rep.Evictions == 0 {
			// A budget set to force eviction must force it, or the sweep
			// proved nothing about eviction on this seed.
			failures++
			fmt.Printf("seed %d: no shard evicted under a %d-byte budget\n", seed, *cacheBytes)
		}
		if n := i + 1; n%50 == 0 || n == *seeds {
			fmt.Printf("[%d/%d] %d failures, %d queries checked, %d transforms applied, %d loop comparisons, %d lies quarantined, %d spec iters, %d misspecs recovered, %d surviving loops, %d warm hits, %d elastic hits, %d evictions\n",
				n, *seeds, failures, queries, applied, compared, lies, specIters, execMisspecs, survivingLoops, warmHits, elasticHits, evictions)
		}
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// runOne re-checks one program file (e.g. a committed reproducer).
func runOne(cfg oracle.Config, path string, shrink bool, out string) int {
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	name := strings.TrimSuffix(filepath.Base(path), ".mc")
	rep, err := oracle.CheckProgram(cfg, name, string(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
		return 2
	}
	if !rep.Failed() {
		fmt.Printf("%s: ok (%d hot loops, %d queries, %d transforms)\n",
			path, rep.HotLoops, rep.Queries, rep.TransformsApplied)
		return 0
	}
	fmt.Println(rep.Summary())
	if shrink {
		shrinkAndWrite(cfg, rep, out, name)
	}
	return 1
}

func shrinkAndWrite(cfg oracle.Config, rep *oracle.Report, out, name string) {
	red := oracle.Reduce(rep.Source, func(src string) bool {
		r, err := oracle.CheckProgram(cfg, name, src)
		return err == nil && r.Failed()
	})
	path, err := oracle.WriteRepro(out, name, rep, red)
	if err != nil {
		fmt.Fprintf(os.Stderr, "writing reproducer: %v\n", err)
		return
	}
	fmt.Printf("reduced to %d statements (%d oracle evaluations): %s\n",
		red.Stmts, red.Tests, path)
}
