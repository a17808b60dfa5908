package loadgen

import (
	"fmt"

	"scaf/internal/server"
)

// The saturation sweep boots a complete in-process fleet — N scaf-serve
// fleet backends, each with its own cache shard, plus a scaf-router front
// tier, all on loopback — for each requested size, offers the same open-loop Poisson
// workload to each, and reports throughput, tail latency, and how much of
// the fleet's serving came from the backends' cache shards. The workload's
// deterministic section must be identical across fleet sizes: any
// divergence means a fleet served different bytes than a single instance.

// SaturationConfig parameterizes a sweep.
type SaturationConfig struct {
	// Sizes lists the fleet sizes to sweep (default 1, 2, 4).
	Sizes []int `json:"sizes"`
	// Load is the per-size workload; BaseURL is filled in per fleet.
	Load Config `json:"load"`
	// Workers is each backend's analysis worker count (default 4).
	Workers int `json:"workers"`
	// Membership reruns each size against a fresh fleet plus one spare
	// backend, with a scripted live join (one third through the schedule)
	// and leave (two thirds through) overlapping the workload. The
	// membership pass's deterministic section must equal the static pass's
	// — a live move may cost bounded 503 retries (reported separately in
	// MembershipPoint), never different bytes.
	Membership bool `json:"membership,omitempty"`
}

// SaturationPoint is one fleet size's outcome.
type SaturationPoint struct {
	Instances     int           `json:"instances"`
	Deterministic Deterministic `json:"deterministic"`
	Measured      Measured      `json:"measured"`
	// FleetLocalHits/FleetMisses aggregate the backends' cache-tier
	// lookups, each in the backend's own shard; FleetLoopHits counts whole
	// /analyze loops served from the tier.
	FleetLocalHits int64 `json:"fleet_local_hits"`
	FleetMisses    int64 `json:"fleet_misses"`
	FleetLoopHits  int64 `json:"fleet_loop_hits"`
	// HitRate is tier hits / all tier lookups.
	HitRate float64 `json:"hit_rate"`
	// Membership is the live join/leave rerun (Membership mode only).
	Membership *MembershipPoint `json:"membership,omitempty"`
}

// MembershipPoint is the live-membership rerun of one fleet size: the same
// workload, with a spare backend joined mid-run and an original backend
// departed later. Its deterministic section must equal the static pass's;
// Moved503 is the separately-reported transfer-window cost, and
// Joins/Leaves are the router's own counters (nonvacuity: the moves really
// ran under fire).
type MembershipPoint struct {
	Deterministic Deterministic `json:"deterministic"`
	Measured      Measured      `json:"measured"`
	Moved503      int64         `json:"moved_503"`
	Joins         int64         `json:"joins"`
	Leaves        int64         `json:"leaves"`
	Rollbacks     int64         `json:"rollbacks"`
}

// SaturationReport is the sweep outcome.
type SaturationReport struct {
	Config SaturationConfig  `json:"config"`
	Points []SaturationPoint `json:"points"`
	// Consistent reports whether every size produced the identical
	// deterministic section (schedule and answer digests).
	Consistent bool `json:"consistent"`
}

// Saturate sweeps the configured fleet sizes.
func Saturate(cfg SaturationConfig) (*SaturationReport, error) {
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = []int{1, 2, 4}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	rep := &SaturationReport{Config: cfg, Consistent: true}
	for _, n := range cfg.Sizes {
		pt, err := saturateOne(cfg, n)
		if err != nil {
			return nil, fmt.Errorf("loadgen: fleet of %d: %w", n, err)
		}
		rep.Points = append(rep.Points, *pt)
	}
	for _, pt := range rep.Points[1:] {
		if pt.Deterministic != rep.Points[0].Deterministic {
			rep.Consistent = false
		}
	}
	// A live membership change serving different bytes than its static
	// pass is the same lie as cross-size divergence: a planned move may
	// cost retries, never bytes.
	for _, pt := range rep.Points {
		if pt.Membership != nil && pt.Membership.Deterministic != pt.Deterministic {
			rep.Consistent = false
		}
	}
	return rep, nil
}

func saturateOne(cfg SaturationConfig, n int) (*SaturationPoint, error) {
	pt, err := sweepFleet(cfg, n)
	if err != nil {
		return nil, err
	}
	if cfg.Membership {
		mp, err := sweepMembership(cfg, n)
		if err != nil {
			return nil, fmt.Errorf("membership run: %w", err)
		}
		pt.Membership = mp
	}
	return pt, nil
}

// backendConfig sizes every backend of a sweep's fleets. Each size must
// serve the same deterministic section, so a backend queues the whole
// request budget instead of shedding any of it on a busy host.
func backendConfig(cfg SaturationConfig) server.Config {
	return server.Config{Workers: cfg.Workers, MaxQueue: max(4*cfg.Workers, cfg.Load.Requests)}
}

// sweepFleet boots one fleet, offers the workload, collects the point,
// and drains the fleet before returning.
func sweepFleet(cfg SaturationConfig, n int) (*SaturationPoint, error) {
	fl, err := server.StartLoopbackFleet(n, false, "", backendConfig(cfg), server.RouterConfig{})
	if err != nil {
		return nil, err
	}
	defer fl.Close()

	load := cfg.Load
	load.BaseURL = fl.URL
	run, err := Run(load)
	if err != nil {
		return nil, err
	}

	pt := &SaturationPoint{
		Instances:     n,
		Deterministic: run.Deterministic,
		Measured:      run.Measured,
	}
	for _, id := range fl.IDs() {
		m, err := fl.Metrics(id)
		if err != nil {
			return nil, err
		}
		pt.FleetLocalHits += m.Fleet.LocalHits
		pt.FleetMisses += m.Fleet.Misses
		pt.FleetLoopHits += m.Server.FleetLoopHits
	}
	if total := pt.FleetLocalHits + pt.FleetMisses; total > 0 {
		pt.HitRate = float64(pt.FleetLocalHits) / float64(total)
	}
	return pt, nil
}

// sweepMembership reruns one fleet size with a spare backend and the
// scripted join/leave overlapping the workload: join the spare a third of
// the way through the schedule, depart an original owner at two thirds.
func sweepMembership(cfg SaturationConfig, n int) (*MembershipPoint, error) {
	fl, err := server.StartLoopbackFleet(n, true, "", backendConfig(cfg), server.RouterConfig{})
	if err != nil {
		return nil, err
	}
	defer fl.Close()

	load := cfg.Load
	load.BaseURL = fl.URL
	load.Membership = []MembershipEvent{
		{After: load.Requests / 3, Op: "join", ID: server.SpareID, URL: fl.BackendURL(server.SpareID)},
		{After: 2 * load.Requests / 3, Op: "leave", ID: "b0"},
	}
	run, err := Run(load)
	if err != nil {
		return nil, err
	}
	mp := &MembershipPoint{
		Deterministic: run.Deterministic,
		Measured:      run.Measured,
		Moved503:      run.Measured.Moved503,
	}
	if rm, err := fl.RouterMetrics(); err == nil {
		mp.Joins = rm.Router.Joins
		mp.Leaves = rm.Router.Leaves
		mp.Rollbacks = rm.Router.Rollbacks
	}
	return mp, nil
}
