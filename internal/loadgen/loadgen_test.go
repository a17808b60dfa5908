package loadgen

import (
	"net/http/httptest"
	"reflect"
	"testing"

	"scaf/internal/server"
)

// testConfig is the CI smoke configuration: every deterministic counter
// below is a pure function of this seed and mix, so the literals are
// pinned exactly.
func testConfig(baseURL string) Config {
	return Config{
		BaseURL:      baseURL,
		Scheme:       "scaf",
		Rate:         1500,
		Requests:     80,
		QueryFrac:    0.6,
		DeadlineFrac: 0.15,
		DeadlineMS:   50,
		Seed:         42,
	}
}

func runOnce(t *testing.T) Deterministic {
	t.Helper()
	cfg := testConfig("")
	// The server queues the whole request budget, so a busy host delays
	// requests instead of shedding them (shedding is TestAdmissionControl's).
	srv := server.New(server.Config{Workers: 4, MaxQueue: cfg.Requests})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cfg.BaseURL = ts.URL
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Measured.Transport != 0 {
		t.Fatalf("transport errors: %d", rep.Measured.Transport)
	}
	if got := rep.Measured.Statuses[200]; got != rep.Deterministic.Requests {
		t.Fatalf("statuses = %v, want all %d to be 200", rep.Measured.Statuses, rep.Deterministic.Requests)
	}
	return rep.Deterministic
}

// TestLoadgenDeterministicCounters is the contract the CI loadgen smoke
// step relies on: two runs with the same seed against fresh servers
// produce byte-identical deterministic sections, and the seed-determined
// mix counts match pinned literals. The answer digest is asserted equal
// across runs but not pinned — it also folds in the served bytes, which
// legitimately change when the analysis itself evolves.
func TestLoadgenDeterministicCounters(t *testing.T) {
	first := runOnce(t)
	second := runOnce(t)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("deterministic sections diverged across identical runs:\n  %+v\n  %+v", first, second)
	}
	want := Deterministic{
		Requests:       80,
		Queries:        46,
		Analyzes:       34,
		Deadlined:      13,
		ScheduleDigest: "7c3a062eb828f85e",
		AnswerDigest:   first.AnswerDigest, // equal across runs, not pinned
		DigestSamples:  67,
	}
	if first != want {
		t.Fatalf("deterministic section = %+v, want %+v", first, want)
	}
	if first.AnswerDigest == "" || first.AnswerDigest == "0000000000000000" {
		t.Fatalf("answer digest is degenerate: %q", first.AnswerDigest)
	}
}

// TestLoadgenConfigValidation covers the refusal paths.
func TestLoadgenConfigValidation(t *testing.T) {
	if _, err := Run(Config{BaseURL: "http://127.0.0.1:1", Rate: 0, Requests: 10}); err == nil {
		t.Fatal("want error for zero rate")
	}
	if _, err := Run(Config{BaseURL: "http://127.0.0.1:1", Rate: 100, Requests: 0}); err == nil {
		t.Fatal("want error for zero requests")
	}
}

// TestSaturationSweep boots in-process fleets of 1 and 2 instances and
// checks the sweep's cross-size consistency verdict plus the fleet
// counters: a 2-instance fleet must actually consult the remote tier.
func TestSaturationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet sweep boots multiple servers")
	}
	load := testConfig("") // BaseURL filled per fleet by Saturate
	rep, err := Saturate(SaturationConfig{Sizes: []int{1, 2}, Load: load, Workers: 4})
	if err != nil {
		t.Fatalf("Saturate: %v", err)
	}
	if !rep.Consistent {
		t.Fatalf("fleet sizes served different deterministic sections: %+v", rep.Points)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(rep.Points))
	}
	for _, pt := range rep.Points {
		if pt.Measured.Transport != 0 {
			t.Fatalf("n=%d: transport errors: %d", pt.Instances, pt.Measured.Transport)
		}
		if pt.FleetLoopHits == 0 {
			t.Fatalf("n=%d: no whole-loop lookaside hits under repeated analyzes", pt.Instances)
		}
	}
	two := rep.Points[1]
	if two.FleetRemoteHits+two.FleetMisses == 0 {
		t.Fatalf("2-instance fleet never consulted the remote tier: %+v", two)
	}
}

// TestSaturationMembership runs one fleet size twice — static, then with
// the scripted live join/leave overlapping the workload — and checks the
// membership contract: the moves really ran (router counters), nothing
// rolled back, and the deterministic section is identical to the static
// pass, transfer-window retries notwithstanding.
func TestSaturationMembership(t *testing.T) {
	if testing.Short() {
		t.Skip("membership sweep boots multiple fleets")
	}
	load := testConfig("")
	load.Requests = 240
	load.Rate = 600
	rep, err := Saturate(SaturationConfig{Sizes: []int{2}, Load: load, Workers: 4, Membership: true})
	if err != nil {
		t.Fatalf("Saturate: %v", err)
	}
	if len(rep.Points) != 1 || rep.Points[0].Membership == nil {
		t.Fatalf("expected one point with a membership rerun: %+v", rep.Points)
	}
	mp := rep.Points[0].Membership
	if mp.Joins != 1 || mp.Leaves != 1 || mp.Rollbacks != 0 {
		t.Fatalf("membership counters: joins=%d leaves=%d rollbacks=%d, want 1/1/0",
			mp.Joins, mp.Leaves, mp.Rollbacks)
	}
	if mp.Measured.Transport != 0 {
		t.Fatalf("transport errors during membership run: %d", mp.Measured.Transport)
	}
	if got := mp.Measured.Statuses[200]; got != mp.Deterministic.Requests {
		t.Fatalf("final statuses = %v (moved_503=%d), want all %d to be 200",
			mp.Measured.Statuses, mp.Moved503, mp.Deterministic.Requests)
	}
	if !rep.Consistent {
		t.Fatalf("membership run served different bytes than the static run:\n  static:     %+v\n  membership: %+v",
			rep.Points[0].Deterministic, mp.Deterministic)
	}
}
