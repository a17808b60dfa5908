package loadgen

import (
	"fmt"
	"os"

	"scaf/internal/server"
)

// The saturation sweep boots a complete in-process fleet — N scaf-serve
// backends wired as cache peers plus a scaf-router front tier, all on
// loopback — for each requested size, offers the same open-loop Poisson
// workload to each, and reports throughput, tail latency, and how much of
// the fleet's serving came from the cross-instance cache. The workload's
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
	// Persist gives every backend a snapshot directory and runs each size
	// twice: a cold pass, a graceful drain (which writes the snapshots),
	// and a warm pass against rebooted backends. The warm pass must serve
	// the identical deterministic section; its cache economics land in
	// SaturationPoint.Warm.
	Persist bool `json:"persist,omitempty"`
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
	// FleetLocalHits/FleetRemoteHits/FleetMisses aggregate the backends'
	// cache-tier lookups; FleetLoopHits counts whole /analyze loops served
	// from the shared tier.
	FleetLocalHits  int64 `json:"fleet_local_hits"`
	FleetRemoteHits int64 `json:"fleet_remote_hits"`
	FleetMisses     int64 `json:"fleet_misses"`
	FleetLoopHits   int64 `json:"fleet_loop_hits"`
	// RemoteHitRate is (local+remote tier hits) / all tier lookups.
	RemoteHitRate float64 `json:"remote_hit_rate"`
	// Warm is the warm-boot rerun (Persist mode only).
	Warm *WarmPoint `json:"warm,omitempty"`
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

// WarmPoint is the warm-boot rerun of one fleet size: the same workload
// offered to backends rebooted from the snapshots the cold pass drained.
// Its deterministic section must equal the cold pass's, and
// SnapshotLoaded says how many entries the reboot actually restored —
// the warm hit rate is meaningless if the boot was secretly cold.
type WarmPoint struct {
	Deterministic   Deterministic `json:"deterministic"`
	Measured        Measured      `json:"measured"`
	FleetLocalHits  int64         `json:"fleet_local_hits"`
	FleetRemoteHits int64         `json:"fleet_remote_hits"`
	FleetMisses     int64         `json:"fleet_misses"`
	FleetLoopHits   int64         `json:"fleet_loop_hits"`
	RemoteHitRate   float64       `json:"remote_hit_rate"`
	SnapshotLoaded  int64         `json:"snapshot_loaded"`
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
	// A warm boot serving different bytes than its own cold pass is the
	// same lie as cross-size divergence: the cache changed an answer. So
	// is a live membership change: a planned move may cost retries, never
	// bytes.
	for _, pt := range rep.Points {
		if pt.Warm != nil && pt.Warm.Deterministic != pt.Deterministic {
			rep.Consistent = false
		}
		if pt.Membership != nil && pt.Membership.Deterministic != pt.Deterministic {
			rep.Consistent = false
		}
	}
	return rep, nil
}

func saturateOne(cfg SaturationConfig, n int) (*SaturationPoint, error) {
	var dir string
	if cfg.Persist {
		d, err := os.MkdirTemp("", "scaf-loadgen-snap-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		dir = d
	}

	pt, _, err := sweepFleet(cfg, n, dir)
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
	if cfg.Persist {
		// The cold pass's shutdown drained every backend, writing its
		// snapshot; this boot reloads them and reruns the same workload.
		wpt, loaded, err := sweepFleet(cfg, n, dir)
		if err != nil {
			return nil, fmt.Errorf("warm boot: %w", err)
		}
		pt.Warm = &WarmPoint{
			Deterministic:   wpt.Deterministic,
			Measured:        wpt.Measured,
			FleetLocalHits:  wpt.FleetLocalHits,
			FleetRemoteHits: wpt.FleetRemoteHits,
			FleetMisses:     wpt.FleetMisses,
			FleetLoopHits:   wpt.FleetLoopHits,
			RemoteHitRate:   wpt.RemoteHitRate,
			SnapshotLoaded:  loaded,
		}
	}
	return pt, nil
}

// backendConfig sizes every backend of a sweep's fleets. Each size must
// serve the same deterministic section, so a backend queues the whole
// request budget instead of shedding any of it on a busy host.
func backendConfig(cfg SaturationConfig) server.Config {
	return server.Config{Workers: cfg.Workers, MaxQueue: max(4*cfg.Workers, cfg.Load.Requests)}
}

// sweepFleet boots one fleet (persistent when dir is non-empty), offers
// the workload, collects the point, and drains the fleet before
// returning — in persist mode the drain is what writes the snapshots the
// next boot warms from, so it cannot be deferred past the caller.
func sweepFleet(cfg SaturationConfig, n int, dir string) (*SaturationPoint, int64, error) {
	fl, err := server.StartLoopbackFleet(n, false, dir, backendConfig(cfg), server.RouterConfig{})
	if err != nil {
		return nil, 0, err
	}
	defer fl.Close()

	load := cfg.Load
	load.BaseURL = fl.URL
	run, err := Run(load)
	if err != nil {
		return nil, 0, err
	}

	pt := &SaturationPoint{
		Instances:     n,
		Deterministic: run.Deterministic,
		Measured:      run.Measured,
	}
	var loaded int64
	for _, id := range fl.IDs() {
		m, err := fl.Metrics(id)
		if err != nil {
			return nil, 0, err
		}
		pt.FleetLocalHits += m.Fleet.LocalHits
		pt.FleetRemoteHits += m.Fleet.RemoteHits
		pt.FleetMisses += m.Fleet.Misses
		pt.FleetLoopHits += m.Server.FleetLoopHits
		if m.Persist != nil {
			loaded += m.Persist.Loaded
		}
	}
	if total := pt.FleetLocalHits + pt.FleetRemoteHits + pt.FleetMisses; total > 0 {
		pt.RemoteHitRate = float64(pt.FleetLocalHits+pt.FleetRemoteHits) / float64(total)
	}
	return pt, loaded, nil
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
