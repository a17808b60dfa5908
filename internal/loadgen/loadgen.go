// Package loadgen drives a scaf-serve instance (or a scaf-router fleet)
// with an open-loop Poisson workload and reports two strictly separated
// sections: a Deterministic one — request mix, schedule digest, and an
// order-independent digest of every deadline-free answer — that is a pure
// function of the seed and the served bytes (CI asserts it exactly), and
// a Measured one — QPS, latency percentiles — that depends on the machine
// and is reported but never asserted.
//
// Open-loop means arrivals fire on a pre-generated schedule regardless of
// completions: a saturated server sees the offered rate, not a rate
// throttled by its own latency, which is what makes the saturation sweep
// honest.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"scaf/internal/fleet"
)

// DefaultSource is the workload program: one hot loop with an indirect
// store, so queries have real dependence structure and speculative
// options (the same shape the server test suite uses).
const DefaultSource = `
int a[64];
int idx[64];

int main() {
  int t = 0;
  for (int r = 0; r < 40; r = r + 1) {
    for (int i = 0; i < 64; i = i + 1) {
      a[idx[i]] = a[i] + 1;
      t = t + a[i];
    }
  }
  return t;
}
`

// Config parameterizes one load run.
type Config struct {
	// BaseURL of the scaf-serve instance or scaf-router front tier.
	BaseURL string `json:"base_url"`
	// Source is the MC program loaded as the session (DefaultSource if "").
	Source string `json:"-"`
	// Scheme is the analysis scheme (default "scaf").
	Scheme string `json:"scheme"`
	// Rate is the Poisson arrival rate in requests/second.
	Rate float64 `json:"rate"`
	// Requests is the total number of scheduled arrivals.
	Requests int `json:"requests"`
	// QueryFrac is the fraction of arrivals that are single /query
	// requests; the rest are whole-loop /analyze batches.
	QueryFrac float64 `json:"query_frac"`
	// DeadlineFrac is the fraction of arrivals carrying DeadlineMS.
	// Deadlined answers may be degraded, so they are excluded from the
	// deterministic answer digest.
	DeadlineFrac float64 `json:"deadline_frac"`
	// DeadlineMS is the deadline attached to deadlined arrivals.
	DeadlineMS int64 `json:"deadline_ms"`
	// Seed fixes the arrival schedule and request mix.
	Seed int64 `json:"seed"`
	// Membership is a scripted sequence of live membership changes fired
	// against the target router while the workload runs: each event fires
	// once the schedule has dispatched After arrivals, in order, each
	// waiting for the previous to complete. When the script is non-empty,
	// requests answered 503 during a transfer window are retried (bounded,
	// honoring Retry-After) so every arrival's final answer still folds
	// into the deterministic digest — which must therefore equal a
	// static-fleet run's. Transfer-window 503s are counted separately in
	// Measured.Moved503, never in the digest.
	Membership []MembershipEvent `json:"membership,omitempty"`
}

// MembershipEvent is one scripted membership change.
type MembershipEvent struct {
	// After is the number of dispatched arrivals that triggers the event.
	After int `json:"after"`
	// Op is "join" or "leave".
	Op string `json:"op"`
	// ID is the backend being joined or removed; URL is required for join.
	ID  string `json:"id"`
	URL string `json:"url,omitempty"`
}

// Deterministic is the seed-and-bytes-determined section of a Report: CI
// runs the generator twice and asserts this section is identical.
type Deterministic struct {
	Requests  int `json:"requests"`
	Queries   int `json:"queries"`
	Analyzes  int `json:"analyzes"`
	Deadlined int `json:"deadlined"`
	// ScheduleDigest hashes the arrival schedule (offsets and kinds).
	ScheduleDigest string `json:"schedule_digest"`
	// AnswerDigest is the XOR of a 64-bit hash of every deadline-free 200
	// answer's result payload — order-independent, so it is invariant
	// under scheduling and routing, and equals the single-instance value
	// on any fleet that serves byte-identical answers.
	AnswerDigest string `json:"answer_digest"`
	// DigestSamples counts the answers folded into AnswerDigest.
	DigestSamples int `json:"digest_samples"`
}

// Measured is the wall-clock section of a Report: reported, never
// asserted.
type Measured struct {
	DurationMS int64       `json:"duration_ms"`
	QPS        float64     `json:"qps"`
	P50US      int64       `json:"p50_us"`
	P90US      int64       `json:"p90_us"`
	P99US      int64       `json:"p99_us"`
	MaxUS      int64       `json:"max_us"`
	Statuses   map[int]int `json:"statuses"`
	Transport  int         `json:"transport_errors"`
	// Moved503 counts transfer-window 503 responses that were retried
	// during a membership script — the bounded, client-visible cost of a
	// live move, reported separately from final statuses.
	Moved503 int64 `json:"moved_503"`
}

// Report is one load run's outcome.
type Report struct {
	Config        Config        `json:"config"`
	Session       string        `json:"session"`
	Loops         int           `json:"loops"`
	QueryPairs    int           `json:"query_pairs"`
	Deterministic Deterministic `json:"deterministic"`
	Measured      Measured      `json:"measured"`
}

// arrival is one scheduled request.
type arrival struct {
	at       time.Duration
	isQuery  bool
	deadline bool
	pair     int // index into the harvested query pairs
}

type queryPair struct {
	loop, i1, i2, rel string
}

// wire shapes, kept local so loadgen stays decoupled from the server
// package (it drives the HTTP surface like any external client).
type sessionInfo struct {
	ID       string `json:"id"`
	HotLoops []struct {
		Name string `json:"name"`
	} `json:"hot_loops"`
}

type loopResult struct {
	Loop    string `json:"loop"`
	Queries []struct {
		I1  string `json:"i1"`
		I2  string `json:"i2"`
		Rel string `json:"rel"`
	} `json:"queries"`
}

// Run executes one load run: create a session, harvest query pairs from
// one warmup analyze, replay the pre-generated Poisson schedule, report.
func Run(cfg Config) (*Report, error) {
	if cfg.Scheme == "" {
		cfg.Scheme = "scaf"
	}
	if cfg.Source == "" {
		cfg.Source = DefaultSource
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: rate must be positive")
	}
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("loadgen: requests must be positive")
	}
	// The open loop keeps many requests in flight to one host. A pool
	// that keeps their connections open keeps dials out of the measured
	// latencies.
	hc := &http.Client{Timeout: 60 * time.Second, Transport: fleet.NewTransport(nil)}
	// Drop pooled connections on return so a caller tearing down an
	// in-process target isn't stalled by http.Server.Shutdown's grace
	// period for never-used spare connections.
	defer hc.CloseIdleConnections()

	// Session + warmup.
	sess, loops, pairs, err := warmup(hc, cfg)
	if err != nil {
		return nil, err
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("loadgen: warmup analyze yielded no query pairs")
	}

	// Pre-generate the schedule: every random draw happens here, in one
	// fixed order, so the mix and schedule are pure functions of the seed.
	rng := rand.New(rand.NewSource(cfg.Seed))
	schedule := make([]arrival, cfg.Requests)
	var t time.Duration
	for i := range schedule {
		t += time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second))
		schedule[i] = arrival{
			at:       t,
			isQuery:  rng.Float64() < cfg.QueryFrac,
			deadline: rng.Float64() < cfg.DeadlineFrac,
			pair:     rng.Intn(len(pairs)),
		}
	}

	rep := &Report{Config: cfg, Session: sess, Loops: loops, QueryPairs: len(pairs)}
	det := &rep.Deterministic
	det.Requests = len(schedule)
	sh := fnv.New64a()
	for _, a := range schedule {
		fmt.Fprintf(sh, "%d|%v|%v|%d\n", a.at.Nanoseconds(), a.isQuery, a.deadline, a.pair)
		if a.isQuery {
			det.Queries++
		} else {
			det.Analyzes++
		}
		if a.deadline {
			det.Deadlined++
		}
	}
	det.ScheduleDigest = fmt.Sprintf("%016x", sh.Sum64())

	// Replay.
	var (
		mu        sync.Mutex
		digest    uint64
		samples   int
		statuses  = map[int]int{}
		transport int
		lats      []int64
		moved503  int64
	)

	// The membership runner fires scripted events in order, each once the
	// schedule has dispatched its After-th arrival and the previous event
	// has completed — so the ops overlap live traffic but never each other
	// (the router would refuse a concurrent move anyway).
	evCh := make(chan int, len(schedule))
	evErr := make(chan error, 1)
	var evWG sync.WaitGroup
	if len(cfg.Membership) > 0 {
		evWG.Add(1)
		go func() {
			defer evWG.Done()
			next := 0
			fireNext := func(dispatched int) bool {
				for next < len(cfg.Membership) && cfg.Membership[next].After <= dispatched {
					if err := fireEvent(hc, cfg, cfg.Membership[next]); err != nil {
						select {
						case evErr <- err:
						default:
						}
						return false
					}
					next++
				}
				return true
			}
			for i := range evCh {
				if !fireNext(i + 1) {
					return
				}
			}
			// Events scheduled past the last arrival still fire, after it.
			fireNext(cfg.Requests)
		}()
	}

	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range schedule {
		if d := a.at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		if len(cfg.Membership) > 0 {
			evCh <- i
		}
		wg.Add(1)
		go func(a arrival) {
			defer wg.Done()
			t0 := time.Now()
			status, payload, retries, terr := fireRetry(hc, cfg, sess, pairs[a.pair], a)
			lat := time.Since(t0).Microseconds()
			mu.Lock()
			defer mu.Unlock()
			lats = append(lats, lat)
			moved503 += int64(retries)
			if terr {
				transport++
				return
			}
			statuses[status]++
			if status == http.StatusOK && !a.deadline && payload != nil {
				digest ^= fnvSum(payload)
				samples++
			}
		}(a)
	}
	wg.Wait()
	close(evCh)
	evWG.Wait()
	select {
	case err := <-evErr:
		return nil, err
	default:
	}
	elapsed := time.Since(start)

	det.AnswerDigest = fmt.Sprintf("%016x", digest)
	det.DigestSamples = samples
	rep.Measured = Measured{
		DurationMS: elapsed.Milliseconds(),
		QPS:        float64(len(schedule)) / elapsed.Seconds(),
		P50US:      percentileI64(lats, 50),
		P90US:      percentileI64(lats, 90),
		P99US:      percentileI64(lats, 99),
		MaxUS:      percentileI64(lats, 100),
		Statuses:   statuses,
		Transport:  transport,
		Moved503:   moved503,
	}
	return rep, nil
}

// fireEvent executes one scripted membership change against the router's
// admin surface and waits for the cutover to complete.
func fireEvent(hc *http.Client, cfg Config, ev MembershipEvent) error {
	var path string
	var body []byte
	switch ev.Op {
	case "join":
		path = "/fleet/join"
		body, _ = json.Marshal(map[string]string{"id": ev.ID, "url": ev.URL})
	case "leave":
		path = "/fleet/leave"
		body, _ = json.Marshal(map[string]string{"id": ev.ID})
	default:
		return fmt.Errorf("loadgen: unknown membership op %q", ev.Op)
	}
	status, raw, err := post(hc, cfg.BaseURL+path, body)
	if err != nil {
		return fmt.Errorf("loadgen: membership %s %s: %w", ev.Op, ev.ID, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("loadgen: membership %s %s: status %d: %.300s", ev.Op, ev.ID, status, raw)
	}
	return nil
}

// fireRetry issues one scheduled request; under a membership script it
// retries bounded 503s (a segment mid-move answers 503 backend_down with
// Retry-After until its drain completes), so the arrival's final answer is
// the one that lands in the digest. The advertised Retry-After is scaled
// down for loopback — the router speaks whole seconds, the window is
// milliseconds — but still ordered by it.
func fireRetry(hc *http.Client, cfg Config, sess string, p queryPair, a arrival) (int, []byte, int, bool) {
	const retryCap = 400
	retries := 0
	for {
		status, payload, retryAfter, terr := fire(hc, cfg, sess, p, a)
		if terr || status != http.StatusServiceUnavailable ||
			len(cfg.Membership) == 0 || retries >= retryCap {
			return status, payload, retries, terr
		}
		retries++
		delay := 25 * time.Millisecond
		if d := time.Duration(retryAfter) * 50 * time.Millisecond; d > delay {
			delay = d
		}
		if delay > 250*time.Millisecond {
			delay = 250 * time.Millisecond
		}
		time.Sleep(delay)
	}
}

// warmup creates the session and harvests (loop, i1, i2, rel) pairs from
// one deadline-free analyze.
func warmup(hc *http.Client, cfg Config) (string, int, []queryPair, error) {
	body, _ := json.Marshal(map[string]any{
		"name": "loadgen", "source": cfg.Source, "plan": "off",
	})
	status, raw, err := post(hc, cfg.BaseURL+"/sessions", body)
	if err != nil {
		return "", 0, nil, fmt.Errorf("loadgen: create session: %w", err)
	}
	if status != http.StatusCreated {
		return "", 0, nil, fmt.Errorf("loadgen: create session: status %d: %.300s", status, raw)
	}
	var info sessionInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		return "", 0, nil, err
	}
	if len(info.HotLoops) == 0 {
		return "", 0, nil, fmt.Errorf("loadgen: session has no hot loops")
	}

	ab, _ := json.Marshal(map[string]any{"scheme": cfg.Scheme})
	status, raw, err = post(hc, cfg.BaseURL+"/sessions/"+info.ID+"/analyze", ab)
	if err != nil {
		return "", 0, nil, fmt.Errorf("loadgen: warmup analyze: %w", err)
	}
	if status != http.StatusOK {
		return "", 0, nil, fmt.Errorf("loadgen: warmup analyze: status %d: %.300s", status, raw)
	}
	var ar struct {
		Results []loopResult `json:"results"`
	}
	if err := json.Unmarshal(raw, &ar); err != nil {
		return "", 0, nil, err
	}
	var pairs []queryPair
	for _, lr := range ar.Results {
		for _, q := range lr.Queries {
			pairs = append(pairs, queryPair{loop: lr.Loop, i1: q.I1, i2: q.I2, rel: q.Rel})
		}
	}
	return info.ID, len(ar.Results), pairs, nil
}

// fire issues one scheduled request and returns the digest payload — the
// response's result field only (the envelope carries scheduling-dependent
// counters like coalesce hits, which must not leak into the digest) —
// plus the advertised Retry-After seconds on refusals.
func fire(hc *http.Client, cfg Config, sess string, p queryPair, a arrival) (int, []byte, int, bool) {
	var path string
	var req map[string]any
	if a.isQuery {
		path = "/sessions/" + sess + "/query"
		req = map[string]any{
			"scheme": cfg.Scheme, "loop": p.loop, "i1": p.i1, "i2": p.i2, "rel": p.rel,
		}
	} else {
		path = "/sessions/" + sess + "/analyze"
		req = map[string]any{"scheme": cfg.Scheme}
	}
	if a.deadline {
		req["deadline_ms"] = cfg.DeadlineMS
	}
	body, _ := json.Marshal(req)
	resp, err := hc.Post(cfg.BaseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, true
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	resp.Body.Close()
	if err != nil {
		return 0, nil, 0, true
	}
	status := resp.StatusCode
	retryAfter, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
	if status != http.StatusOK {
		return status, nil, retryAfter, false
	}
	if a.isQuery {
		var env struct {
			Query json.RawMessage `json:"query"`
		}
		if json.Unmarshal(raw, &env) == nil {
			return status, env.Query, 0, false
		}
	} else {
		var env struct {
			Results json.RawMessage `json:"results"`
		}
		if json.Unmarshal(raw, &env) == nil {
			return status, env.Results, 0, false
		}
	}
	return status, nil, 0, false
}

func post(hc *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, raw, nil
}

func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func percentileI64(s []int64, p int) int64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]int64(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	idx := (p*len(c) + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(c) {
		idx = len(c)
	}
	return c[idx-1]
}
