GO ?= go

.PHONY: all build vet test race chaos runtime fleet elastic loadgen persist perfbench-smoke bench bench-json bench-baseline bench-check bench-mem oracle clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detect the concurrent paths: the parallel PDG client, the shared
# memo cache, and their equivalence/stress suites.
race:
	$(GO) test -race ./internal/pdg/... ./internal/core/...

# Misspeculation-recovery fault-injection suite under the race detector:
# chaos lies/stalls/panics against live server sessions with concurrent
# query/analyze/observe traffic, the observe-equivalence and panic-
# isolation tests (a report refused with 400 must change nothing), the
# quarantine/invalidation stress tests, and the recovery package's own
# suite.
chaos:
	$(GO) test -race -count=1 ./internal/recovery/...
	$(GO) test -race -count=1 ./internal/core/ -run 'Quarantine|Invalidate|Revok'
	$(GO) test -race -count=1 -v ./internal/server/ -run 'TestObserve|TestModulePanic|TestHandlerPanic|TestChaos|TestNewHTTPServer'

# Speculative-parallel runtime suite under the race detector: chunked
# DOALL execution against journaled memory views, commit-order
# validation, the abort-guard regression test (disabled commit guard
# must corrupt results), and the 8-worker chaos stress tests that force
# misspeculation and require byte-equal convergence to serial.
runtime:
	$(GO) test -race -count=1 ./internal/runtime/...

# Fleet-mode gate under the race detector: the fleet package's own suite
# (local shard, ring, and the transport every fleet-internal client
# uses: the peek before reuse, the retry rule, deadlines from the
# request's context, what is never pooled, teardown), the server's fleet
# tests (a backend recomputing a
# loop another holds, fleet-wide quarantine invalidation with the
# guaranteed-miss proof), and the router suite (broadcast consensus,
# sharded-read byte-identity vs a single cold instance, one placement per
# loop whatever the scheme's spelling, backend loss + reconcile rejoin,
# a backend that restarted between two requests refused and caught up
# instead of answering 404, recovery replication: an observe or a module
# panic reaches the session's copy on every backend and no other
# session, a backend that misses it is marked down until a probe catches
# it up, and a reply whose origin could not be read is refused; connection
# reuse: TestRouterReusesConnections fails if a second batch of session
# lifecycles dials more router connections than its fan-out needs, and
# an oversized backend reply must become a 502; the churn
# gate TestFleetChurnMemoryLevelsOff fails if a shard passes its byte
# budget or the heap keeps growing with the fleet's history), then
# TestRouterConcurrentProbes ten times over (probes that run at once must
# catch a backend up exactly once) and the transport tests twenty times
# over (the router's fan-out goroutines share one pool, and a connection
# lost or handed back twice shows only under repetition) — then a
# fleet byte-identity oracle sweep: generated programs served through
# router + 2 backends must byte-equal a single instance, serially
# and under concurrent fire. The sweep runs twice: at the default shard
# budget, and at a 1 KiB budget that makes every seed evict (a seed that
# evicts nothing fails), so eviction is shown to cost hits, never bytes.
# Last, a 30s differential-fuzz smoke over the committed corpus holds the
# byte path's JSON validator (isJSONObject, which checks every stored
# loop value once and every sub-reply the router splices) to
# encoding/json.Valid. Minimizing a new input as deep as the nesting
# limit kept a worker busy for most of the 30s (about 2,000 execs in
# all), so minimization is capped at a second (about 150,000).
fleet:
	$(GO) test -race -count=1 ./internal/fleet/...
	$(GO) test -race -count=1 -v ./internal/server/ -run 'TestFleet|TestRouter'
	$(GO) test -race -count=10 ./internal/server/ -run '^TestRouterConcurrentProbes$$'
	$(GO) test -race -count=20 ./internal/fleet/ -run '^TestTransport'
	$(GO) run ./cmd/scaf-oracle -seeds 25 -start 7000 -fast -fleet
	$(GO) run ./cmd/scaf-oracle -seeds 25 -start 7000 -fast -fleet -cache-bytes 1024
	$(GO) test ./internal/server/ -run '^$$' -fuzz '^FuzzValidJSON$$' -fuzztime 30s -fuzzminimizetime 1s

# Elasticity gate under the race detector: live membership change. The
# fleet tier's own suite (ring bounded-movement property; a tier has no
# peer set to change), the membership chaos
# suite (a join and a leave stream exactly the loops the router's
# placement moves, joiner killed mid-stream rolls back, old owner killed
# mid-drain degrades to 503s, double-join and leave-during-join are
# refused, dead-member leave never wedges, byte-identity and durable
# membership after a join, a segment above the shard budget installing
# to within it), the
# prober-backoff test, the loadgen membership schedule (live join/leave
# mid-saturation must not change the deterministic digest) — then a
# 25-seed live-membership oracle sweep: join and leave under concurrent
# fire, every answer byte-compared against the static fleet, with the
# joiner required to serve warm hits from its streamed segments — and
# again at a 1 KiB shard budget, where a warm hit is demanded only of a
# moved loop whose entry stayed resident until it replayed.
elastic:
	$(GO) test -race -count=1 ./internal/fleet/...
	$(GO) test -race -count=1 -v ./internal/server/ -run 'TestElastic|TestRouterProbeBackoff'
	$(GO) test -race -count=1 ./internal/loadgen/ -run 'TestSaturationMembership'
	$(GO) run ./cmd/scaf-oracle -seeds 25 -start 7000 -fast -elastic
	$(GO) run ./cmd/scaf-oracle -seeds 25 -start 7000 -fast -elastic -cache-bytes 1024

# Loadgen smoke: the generator's own suite, then the CLI twice with one
# seed against fresh in-process servers — the deterministic sections
# (request mix, schedule digest, order-independent answer digest) must be
# byte-identical across runs and match the pinned literals (same pins as
# TestLoadgenDeterministicCounters) — then the 1/2/4-instance saturation
# sweep, which exits non-zero if any fleet size serves a deterministic
# section different from single-instance.
LOADGEN_ARGS ?= -rate 1500 -requests 80 -seed 42 -query-frac 0.6 -deadline-frac 0.15
LOADGEN_PIN  ?= requests=80 queries=46 analyzes=34 deadlined=13 samples=67
loadgen:
	$(GO) test -count=1 ./internal/loadgen/...
	$(GO) run ./cmd/scaf-loadgen $(LOADGEN_ARGS) -json LOADGEN.1.json | grep '^deterministic:' > LOADGEN.1.txt
	$(GO) run ./cmd/scaf-loadgen $(LOADGEN_ARGS) -json LOADGEN.2.json | grep '^deterministic:' > LOADGEN.2.txt
	diff LOADGEN.1.txt LOADGEN.2.txt
	grep -q '$(LOADGEN_PIN)' LOADGEN.1.txt || { \
		echo "loadgen: deterministic counters drifted from the pin:"; cat LOADGEN.1.txt; exit 1; }
	$(GO) run ./cmd/scaf-loadgen -saturate -sizes 1,2,4 $(LOADGEN_ARGS) -json LOADGEN.saturation.json

# Persistence gate under the race detector: the snapshot codec's own
# suite (prefix property, inner checksums, revoked-journal semantics,
# snapshot-during-drain stress), the server warm-restart suite (byte-
# identical warm boots, a snapshot above the shard budget booting to
# within it, a restart straddling an /observe quarantine with
# the physical-miss proof, journal-blocked resurrection after a crash,
# idempotent shutdown, periodic snapshots, and the router's snapshot of
# its live sessions and ID counter: a restarted router catches up an
# empty backend, the snapshot does not grow with create/delete history,
# and a router booted from one older than the fleet keeps creating),
# then a 25-seed warm-restart oracle sweep,
# again at a 1 KiB shard budget (a warm hit is demanded only of a
# surviving entry the replay did not evict), and a 30s corruption-fuzz
# smoke over the committed corpus.
persist:
	$(GO) test -race -count=1 ./internal/persist/...
	$(GO) test -race -count=1 -v ./internal/server/ -run 'TestServerWarmRestart|TestServerRestartStraddling|TestRevokedJournal|TestServerShutdownIdempotent|TestServerPeriodicSnapshot|TestRouterPersist|TestRouterCloseConcurrent'
	$(GO) run ./cmd/scaf-oracle -seeds 25 -start 7000 -fast -persist
	$(GO) run ./cmd/scaf-oracle -seeds 25 -start 7000 -fast -persist -cache-bytes 1024
	$(GO) test ./internal/persist/ -run '^$$' -fuzz '^FuzzSnapshotCorruption$$' -fuzztime 30s

# Benchmark-module smoke: perfbench is a Go module of its own, so build,
# vet and test above never compile it, and a renamed internal/server name
# it uses would only break the benchmark. Vet and test the module, then
# run each fleet workload for two seconds; a run fails the target unless
# its last line (the result JSON) reports "correct":true and "failed":0.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...
	@for w in fleet-churn fleet-warm; do \
		out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0) || exit 1; \
		last=$$(printf '%s\n' "$$out" | tail -n 1); \
		echo "perfbench-smoke $$w: $$last"; \
		case "$$last" in *'"correct":true'*'"failed":0,'*) ;; \
		*) printf '%s\n' "$$out"; echo "perfbench-smoke: $$w run was not correct with 0 failed ops"; exit 1;; \
		esac; \
	done

# Wall-clock comparison of serial vs parallel suite analysis. Needs
# GOMAXPROCS >= 4 to show a speedup.
bench:
	$(GO) test ./internal/bench/ -run '^$$' -bench 'BenchmarkSuiteSerial|BenchmarkSuiteParallel' -benchtime 3x

# Machine-readable per-benchmark report plus one traced SCAF analysis.
# The trace run doubles as a smoke test: scaf-bench exits non-zero if the
# JSONL event totals do not reconcile with the orchestration counters.
BENCH_JSON_ARGS ?= -bench 181.mcf
bench-json:
	$(GO) run ./cmd/scaf-bench $(BENCH_JSON_ARGS) -fig 8 \
		-json BENCH.json -trace trace.jsonl -trace-dot trace.dot

# Bench-regression gate. The committed baseline pins the answer
# distribution (%NoDep, query counts) and the deterministic p50 per-query
# work (module evals — machine-independent, so the gate is stable on any
# CI host; the baseline runs serially to keep sample collection exact).
# bench-check fails on any answer drift or a >20% p50 work regression.
# -execute adds the speculative-runtime pass: each gate benchmark is run
# under its SCAF plans and the deterministic commit/abort counters are
# pinned exactly (183.equake is in the set because it actually
# speculates — 1 DOALL loop — so those counters are non-vacuous).
BENCH_GATE_ARGS ?= -bench 129.compress,181.mcf,183.equake,462.libquantum -parallel 1 -fig 8 -execute
BENCH_BASELINE  ?= results/bench-baseline.json

# Regeneration flow: after an INTENTIONAL change to answers or query
# work (new module, batching/ordering change, gate-benchmark edit), run
# `make bench-baseline`, eyeball the diff against the old baseline —
# %NoDep and top_queries should only move if the change means them to —
# and commit the regenerated file together with the change that caused
# it. bench-check failing on an unintentional diff is the gate working.
bench-baseline:
	$(GO) run ./cmd/scaf-bench $(BENCH_GATE_ARGS) -json $(BENCH_BASELINE)

bench-check:
	$(GO) run ./cmd/scaf-bench $(BENCH_GATE_ARGS) -json BENCH.fresh.json
	$(GO) run ./cmd/scaf-benchdiff $(BENCH_BASELINE) BENCH.fresh.json

# Allocation gate on eleven hot paths whose allocs/op are exact. Each
# ceiling is a literal in its pin line below, so no variable from the
# environment or the command line can loosen it; raise one only with a
# justification in the commit that does.
#   - BenchmarkTopQuery times one top-level mod-ref query on a warm
#     orchestrator — the unit the serving layer issues millions of times
#     (seed was 64 allocs/op; interning + pooling brought it to 16, and
#     the planning-pass bookkeeping below to 10). Its ceiling is the 24
#     it was introduced with. Its orchestrator has no shared cache.
#   - BenchmarkSharedCache/hit and /publish time the shared cache's two
#     operations on a top-level query's path: a hit on a resident mod-ref
#     entry, and the publication of one that rests on an assertion, each
#     past a Revoker check. When every shard kept two pre-made maps and
#     one global index held the assertion rows, they cost 0 and 1
#     allocs/op with Go 1.24 at 2000 iterations (about 75 and 830 ns, and
#     0 and 1,011 B per op, at 200,000); those are the ceilings.
#   - BenchmarkAnalyzeWarmHit times one SCAF /analyze of 129.compress
#     served whole from the fleet tier as stored bytes, through the
#     server's handler (decoding and re-encoding the stored result cost
#     1931 allocs/op; splicing the bytes brought it to 50). Its ceiling
#     is the measured count: exactly 50 with Go 1.24 at GOMAXPROCS 1, 2
#     and 4 and at 50 to 2000 iterations. Block names written without
#     fmt took two more off: 48, once 49 at GOMAXPROCS 4 and 50
#     iterations, so the ceiling stays 50. A reply written in pieces
#     with a Content-Length adds the header and the recorder's growth
#     per piece; loop names made once and a flight key built by
#     concatenation more than pay for them: 42 with Go 1.24 at
#     GOMAXPROCS 1, 2 and 4 and at 50, 200 and 1000 iterations (40.6 KB
#     and about 30 us per op, from 73.3 KB and 216 us). The ceiling
#     stays 50.
#   - BenchmarkRouterAnalyzeWarm times one SCAF /analyze of 175.vpr
#     through Router.Handler() in front of a two-backend loopback fleet,
#     every loop a tier hit: the fan-out, each backend's splice, and the
#     router's check and splice of each sub-reply. It counts the
#     allocations of every goroutine, net/http's client and server
#     included. When each hit ran json.Valid, the backend wrote one
#     assembled body and the router read each reply by doubling, it cost
#     192-208 allocs/op (about 940 KB/op and 2.7-3.9 ms/op); stored values
#     checked once, a faster validator and replies framed by length
#     brought it to 161-165 (about 280 KB and 0.8 ms per op). The fleet
#     transport, which writes and reads each hop on the calling goroutine
#     where net/http's Transport handed both to goroutines of its own,
#     brought it to 132-136 with Go 1.24 at GOMAXPROCS 1, 2 and 4 and at
#     50, 200 and 1000 iterations. The ceiling is 170: 25% headroom over
#     136, since net/http parses replies and the server allocates
#     differently under the CI matrix's Go 1.22 and 1.23.
#   - BenchmarkRouterQueryWarm times one warm SCAF /query of 175.vpr
#     through Router.Handler() in front of the same fleet, after one
#     /analyze: the router's routing-key decode and its hop to the
#     backend that resolved the query's loop, whose shared cache answers
#     it (every iteration must evaluate no module). Through net/http's
#     Transport it cost 165-169 allocs/op; through the fleet transport
#     it costs 134-135 (about 16 KB and 0.05-0.12 ms per op) with Go
#     1.24 at GOMAXPROCS 1, 2 and 4 and at 50, 200 and 1000 iterations.
#     The ceiling is 168: the same 25% headroom over 134.
#   - BenchmarkProfiling (root package) times scaf.Load of 129.compress:
#     compile, CFG and the profiling run under the five profilers the
#     speculation modules read, the work every session create does on
#     every backend. Records built per memory access cost 224,788
#     allocs/op; per-version loop snapshots and per-instruction records
#     brought it to 15,937, and reusable call activations, dense memdep
#     records and interned call contexts to 2,946, and one pointer type
#     per global and dense dominator tables to 2,794-2,796. Leaving the
#     memory-dependence profiler to memspec's own run took it to 1,558
#     (1.11 MB to 150 KB per op); decoding each function once per run
#     adds a few per function: 1,602 with Go 1.24 at GOMAXPROCS 1, 2 and
#     4 and at 20 and 50 iterations. Part of the rest is map growth,
#     which allocates differently under the CI matrix's Go 1.22 and
#     1.23, so the ceiling is 2,000: the same 25% headroom over the
#     measured count.
#   - BenchmarkRun/175.vpr and BenchmarkRun/429.mcf (root package) time
#     a bare interp.Run, the interpreter under both program runs of a
#     session create. Reusable activations left 42 and 207 allocs/op to
#     the tree-walking interpreter; the decoded one pays a few per
#     function decoded: 84 and 246 with Go 1.24 at GOMAXPROCS 1, 2 and 4
#     and at 20 and 50 iterations. The ceilings are 105 and 310, 25%
#     headroom for the CI matrix's map growth.
#   - BenchmarkValidation (root package) times System.Validate of
#     183.equake's session plan, whose control-spec, read-only,
#     short-lived and value-prediction checks make the run pay for the
#     loop tracker too. A Frame and register file per call and loop
#     entries allocated one by one cost 25,133 allocs/op; activation
#     buffers and chunked loop entries brought it to 1,254 with Go 1.24
#     at GOMAXPROCS 1, 2 and 4 and at 20 and 50 iterations, most of it
#     the program's own objects; the decoded interpreter's few per
#     function took it to 1,305-1,306. The ceiling is 1,600: 23%
#     headroom for the map growth of Go 1.22 and 1.23, and fifteen times
#     below the per-call cost.
#   - BenchmarkPlanResolve (root package) times the planning resolve of a
#     session create on 175.vpr: a fresh SCAF orchestrator under JoinAll
#     and BailExhaustive resolving every hot loop. Path searches that
#     cleared a map, fmt-built interning keys, map-and-sort contributor
#     merges and per-answer copies cost 76,697 allocs/op; epoch-stamped
#     searches, an append-built key looked up without conversion, linear
#     merges returning an input, and filters and dedups that pass clean
#     sets through brought it to about 35,300 with Go 1.24 at GOMAXPROCS
#     1, 2 and 4 and at 10 and 50 iterations (it moves by a few with the
#     batch-table pool). The ceiling is 44,000: 25% headroom for the map
#     growth of Go 1.22 and 1.23.

# bench_mem_pin runs benchmark $(2) of package $(1) for $(3) iterations
# and fails when its allocs/op exceed the ceiling $(4). $(2) may name a
# sub-benchmark (Name/sub); its result line is found by its exact name,
# less the -GOMAXPROCS suffix.
define bench_mem_pin
	$(GO) test $(1) -run '^$$' -bench '^$(2)$$' -benchmem -benchtime $(3) | tee -a BENCH.mem.txt
	@allocs=$$(awk -v name='$(2)' '{n = $$1; sub(/-[0-9]+$$/, "", n)} n == name {print $$(NF-1)}' BENCH.mem.txt); \
	if [ -z "$$allocs" ]; then echo "bench-mem: no $(2) result"; exit 1; fi; \
	if [ "$$allocs" -gt $(4) ]; then \
		echo "bench-mem: $(2) allocs/op = $$allocs, above the $(4) ceiling"; exit 1; \
	else \
		echo "bench-mem: $(2) allocs/op = $$allocs (ceiling $(4))"; \
	fi
endef

bench-mem:
	@rm -f BENCH.mem.txt
	$(call bench_mem_pin,./internal/bench/,BenchmarkTopQuery,2000x,24)
	$(call bench_mem_pin,./internal/core/,BenchmarkSharedCache/hit,2000x,0)
	$(call bench_mem_pin,./internal/core/,BenchmarkSharedCache/publish,2000x,1)
	$(call bench_mem_pin,./internal/server/,BenchmarkAnalyzeWarmHit,200x,50)
	$(call bench_mem_pin,./internal/server/,BenchmarkRouterAnalyzeWarm,200x,170)
	$(call bench_mem_pin,./internal/server/,BenchmarkRouterQueryWarm,200x,168)
	$(call bench_mem_pin,.,BenchmarkProfiling,20x,2000)
	$(call bench_mem_pin,.,BenchmarkRun/175.vpr,20x,105)
	$(call bench_mem_pin,.,BenchmarkRun/429.mcf,20x,310)
	$(call bench_mem_pin,.,BenchmarkValidation,20x,1600)
	$(call bench_mem_pin,.,BenchmarkPlanResolve,20x,44000)

# Differential-testing oracle sweep (the CI gate): soundness,
# monotonicity, serial/parallel/shared-cache/server answer drift,
# metamorphic transform stability, and misspeculation-recovery
# equivalence over generated programs. Failures are ddmin-shrunk into
# self-contained reproducers under ORACLE_OUT.
ORACLE_SEEDS ?= 200
ORACLE_START ?= 1
ORACLE_OUT   ?= testdata/repros

oracle:
	$(GO) run ./cmd/scaf-oracle -seeds $(ORACLE_SEEDS) -start $(ORACLE_START) -shrink -out $(ORACLE_OUT)

clean:
	$(GO) clean ./...
