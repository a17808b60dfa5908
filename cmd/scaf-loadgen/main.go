// Command scaf-loadgen offers an open-loop Poisson workload to a
// scaf-serve instance or a scaf-router fleet and prints a two-section
// report: deterministic counters and digests (a pure function of the seed
// and the served bytes — CI asserts them exactly) and measured throughput
// and latency (machine-dependent, never asserted).
//
//	scaf-loadgen -rate 200 -requests 1000 -seed 42            # in-proc server
//	scaf-loadgen -url http://127.0.0.1:8400 -rate 500 ...     # live fleet
//	scaf-loadgen -saturate -sizes 1,2,4 -rate 300 ...         # fleet sweep
//
// With no -url, a single scaf-serve instance is booted in-process. With
// -saturate, in-process fleets of each requested size (backends + router)
// are booted and swept; -url is ignored.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"scaf/internal/loadgen"
	"scaf/internal/server"
)

func main() {
	url := flag.String("url", "", "target base URL (empty: boot an in-process scaf-serve)")
	rate := flag.Float64("rate", 200, "Poisson arrival rate, requests/second")
	requests := flag.Int("requests", 500, "total scheduled arrivals")
	queryFrac := flag.Float64("query-frac", 0.7, "fraction of arrivals that are /query (rest are /analyze)")
	deadlineFrac := flag.Float64("deadline-frac", 0.1, "fraction of arrivals carrying a deadline")
	deadlineMS := flag.Int64("deadline-ms", 50, "deadline attached to deadlined arrivals")
	seed := flag.Int64("seed", 1, "schedule and mix seed")
	scheme := flag.String("scheme", "scaf", "analysis scheme")
	workers := flag.Int("workers", 4, "in-process server worker count")
	saturate := flag.Bool("saturate", false, "run the fleet saturation sweep instead of a single run")
	sizes := flag.String("sizes", "1,2,4", "fleet sizes for -saturate")
	persist := flag.Bool("persist", false, "with -saturate: drain each fleet to snapshots, reboot warm, and report the warm-boot hit rate")
	membership := flag.Bool("membership", false, "with -saturate: rerun each size with a scripted live join and leave mid-run; digests must match the static run, transfer-window 503s are reported separately")
	jsonOut := flag.String("json", "", "write the report as JSON to this path ('-' for stdout)")
	flag.Parse()

	cfg := loadgen.Config{
		BaseURL:      *url,
		Scheme:       *scheme,
		Rate:         *rate,
		Requests:     *requests,
		QueryFrac:    *queryFrac,
		DeadlineFrac: *deadlineFrac,
		DeadlineMS:   *deadlineMS,
		Seed:         *seed,
	}

	if *membership && !*saturate {
		log.Fatal("scaf-loadgen: -membership requires -saturate")
	}

	var report any
	inconsistent := false
	if *saturate {
		var ns []int
		for _, s := range strings.Split(*sizes, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			n, err := strconv.Atoi(s)
			if err != nil || n <= 0 {
				log.Fatalf("scaf-loadgen: bad -sizes entry %q", s)
			}
			ns = append(ns, n)
		}
		rep, err := loadgen.Saturate(loadgen.SaturationConfig{
			Sizes: ns, Load: cfg, Workers: *workers, Persist: *persist, Membership: *membership,
		})
		if err != nil {
			log.Fatalf("scaf-loadgen: %v", err)
		}
		printSaturation(rep)
		report = rep
		inconsistent = !rep.Consistent
	} else {
		stop, target, err := ensureTarget(cfg.BaseURL, *workers, cfg.Requests)
		if err != nil {
			log.Fatalf("scaf-loadgen: %v", err)
		}
		cfg.BaseURL = target
		rep, err := loadgen.Run(cfg)
		stop()
		if err != nil {
			log.Fatalf("scaf-loadgen: %v", err)
		}
		printRun(rep)
		report = rep
	}

	if *jsonOut != "" {
		raw, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatalf("scaf-loadgen: marshal report: %v", err)
		}
		raw = append(raw, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(raw)
		} else if err := os.WriteFile(*jsonOut, raw, 0o644); err != nil {
			log.Fatalf("scaf-loadgen: write %s: %v", *jsonOut, err)
		}
	}
	if inconsistent {
		log.Fatal("scaf-loadgen: fleet sizes served different deterministic sections")
	}
}

// ensureTarget returns the run's base URL, booting a single in-process
// scaf-serve on loopback when none was given. That server queues every
// request of the run instead of shedding any: the deterministic section
// folds only 200 answers, so a 429 on a busy host would change it.
func ensureTarget(url string, workers, requests int) (stop func(), target string, err error) {
	if url != "" {
		return func() {}, url, nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := server.New(server.Config{Workers: workers, MaxQueue: max(4*workers, requests)})
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(l)
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		srv.Shutdown(ctx)
	}
	return stop, "http://" + l.Addr().String(), nil
}

func printRun(rep *loadgen.Report) {
	d, m := rep.Deterministic, rep.Measured
	fmt.Printf("deterministic: requests=%d queries=%d analyzes=%d deadlined=%d samples=%d\n",
		d.Requests, d.Queries, d.Analyzes, d.Deadlined, d.DigestSamples)
	fmt.Printf("deterministic: schedule=%s answers=%s\n", d.ScheduleDigest, d.AnswerDigest)
	fmt.Printf("measured: %.1f qps over %dms; p50=%dus p90=%dus p99=%dus max=%dus; statuses=%v transport=%d\n",
		m.QPS, m.DurationMS, m.P50US, m.P90US, m.P99US, m.MaxUS, m.Statuses, m.Transport)
}

func printSaturation(rep *loadgen.SaturationReport) {
	for _, pt := range rep.Points {
		fmt.Printf("fleet n=%d: %.1f qps p99=%dus remote_hit_rate=%.3f (local=%d remote=%d miss=%d loop_hits=%d) answers=%s\n",
			pt.Instances, pt.Measured.QPS, pt.Measured.P99US, pt.RemoteHitRate,
			pt.FleetLocalHits, pt.FleetRemoteHits, pt.FleetMisses, pt.FleetLoopHits,
			pt.Deterministic.AnswerDigest)
		if mp := pt.Membership; mp != nil {
			fmt.Printf("fleet n=%d membership: %.1f qps p99=%dus joins=%d leaves=%d rollbacks=%d moved_503=%d answers=%s\n",
				pt.Instances, mp.Measured.QPS, mp.Measured.P99US,
				mp.Joins, mp.Leaves, mp.Rollbacks, mp.Moved503, mp.Deterministic.AnswerDigest)
		}
		if w := pt.Warm; w != nil {
			fmt.Printf("fleet n=%d warm: %.1f qps p99=%dus remote_hit_rate=%.3f (local=%d remote=%d miss=%d loop_hits=%d snapshot_loaded=%d) answers=%s\n",
				pt.Instances, w.Measured.QPS, w.Measured.P99US, w.RemoteHitRate,
				w.FleetLocalHits, w.FleetRemoteHits, w.FleetMisses, w.FleetLoopHits,
				w.SnapshotLoaded, w.Deterministic.AnswerDigest)
		}
	}
	fmt.Printf("consistent across sizes: %v\n", rep.Consistent)
}
