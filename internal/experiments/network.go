package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"kdesel/internal/core"
	"kdesel/internal/fault"
	"kdesel/internal/httpclient"
	"kdesel/internal/httpserve"
	"kdesel/internal/metrics"
	"kdesel/internal/query"
	"kdesel/internal/registry"
	"kdesel/internal/table"
)

// DefaultNetworkFaults is the chaos schedule for the faulted run: periodic
// added latency, injected 5xx answers, and severed connections, all
// deterministic in the request count so runs are reproducible.
const DefaultNetworkFaults = "netdelay:every=7,delay=2ms;net5xx:every=31;netdrop:every=43"

// networkServiceTime is the schedule both runs share: every admitted
// estimate holds its in-flight slot for 10ms, emulating a device's service
// time (paper §5). The service is wall-clock real but CPU-idle, which is
// the regime where admission control, not the host scheduler, decides who
// waits; a CPU-bound service on a small host throttles its own arrivals,
// so the admission queue never fills and nothing sheds.
const networkServiceTime = "servedelay:delay=10ms"

// NetworkConfig parameterizes the networked-serving resilience experiment:
// closed-loop HTTP clients at a fixed overload factor drive one model
// through the httpserve frontend over a real loopback listener, once
// fault-free and once under the chaos schedule. The claims under test are
// the frontend's robustness contract: shed requests are rejected fast
// (never queued), accepted-request tail latency stays bounded under faults,
// and the admission accounting is exact — every issued request is accepted,
// shed, or failed, with client- and server-side counts agreeing.
type NetworkConfig struct {
	// Dims is the table dimensionality (default 4).
	Dims int
	// SampleSize is the KDE model size (default 4096).
	SampleSize int
	// Rows in the synthetic table (default SampleSize + 1000).
	Rows int
	// MaxInFlight caps concurrently evaluating estimates (default 4) and
	// MaxQueue the admission wait queue (default MaxInFlight); both are
	// deliberately small so the overload actually sheds.
	MaxInFlight int
	MaxQueue    int
	// Overload is the client multiple of MaxInFlight (default 6): with the
	// defaults, 24 closed-loop clients contend for 4 slots + 4 queue seats,
	// so most of the offered load must wait or be shed at any instant.
	Overload int
	// QueriesPerClient is each client's request budget per run (default 120).
	QueriesPerClient int
	// Timeout is the per-request deadline (default 2s) — generous, so the
	// experiment measures shedding, not deadline churn.
	Timeout time.Duration
	// MaxBatch is the model coalescer's capacity (default
	// serve.DefaultMaxBatch).
	MaxBatch int
	// Faults is the chaos schedule (internal/fault grammar) the faulted run
	// adds to the shared service time (default DefaultNetworkFaults).
	Faults string
	// Seed drives all randomness.
	Seed int64
	// Metrics, when non-nil, instruments both runs; the result carries a
	// final snapshot. Per-run figures use counter deltas, so sharing one
	// registry across runs stays exact.
	Metrics *metrics.Registry
}

func (c NetworkConfig) withDefaults() NetworkConfig {
	if c.Dims <= 0 {
		c.Dims = 4
	}
	if c.SampleSize <= 0 {
		c.SampleSize = 4096
	}
	if c.Rows <= 0 {
		c.Rows = c.SampleSize + 1000
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = c.MaxInFlight
	}
	if c.Overload <= 0 {
		c.Overload = 6
	}
	if c.QueriesPerClient <= 0 {
		c.QueriesPerClient = 120
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Faults == "" {
		c.Faults = DefaultNetworkFaults
	}
	return c
}

// NetworkPoint is one run (baseline or chaos): client-observed outcome
// counts and latency quantiles, the server-side admission counters for the
// cross-check, and the injected-fault tallies.
type NetworkPoint struct {
	Faulted bool
	Clients int

	// Client-observed outcomes: every issued request lands in exactly one
	// bucket. Failed covers injected 5xx, severed connections, deadline
	// expiry, and drain rejections — everything that is neither a result
	// nor a shed.
	Issued, Accepted, Shed, Failed int

	AcceptedP50, AcceptedP99 time.Duration
	ShedP50                  time.Duration
	Elapsed                  time.Duration
	AcceptedQPS              float64

	// Server-side admission counters (http.* deltas over the run).
	ServerRequests, ServerAccepted, ServerShed int64

	// Injected fault occurrences (chaos run only).
	Delays, Errors5xx, Drops int64

	// Exact reports the accounting identity: accepted + shed + failed ==
	// issued on the client side, and the server's accepted/shed/request
	// counters agree with the client's tallies exactly.
	Exact bool
}

// NetworkResult pairs the fault-free baseline with the chaos run over the
// identical workload and carries the three acceptance verdicts.
type NetworkResult struct {
	Config   NetworkConfig
	Baseline NetworkPoint
	Chaos    NetworkPoint

	// ShedRatio is chaos shed p50 / chaos accepted p50; ShedFast is the
	// fast-rejection verdict (ratio < 0.10: shedding costs an atomic add and
	// an immediate 429, never a queue wait).
	ShedRatio float64
	ShedFast  bool
	// P99Ratio is chaos accepted p99 / baseline accepted p99; P99Bounded is
	// the bounded-tail verdict (ratio ≤ 2: faults degrade the tail at most
	// 2× because faulted requests fail fast instead of occupying capacity).
	P99Ratio   float64
	P99Bounded bool
	// AccountingExact requires both runs' identities to hold exactly — no
	// request lost or double-counted under overload, cancellation, or chaos.
	AccountingExact bool

	Metrics *metrics.Snapshot
}

// Network runs the resilience experiment: baseline first, then the chaos
// schedule, over one table and identical per-client query streams.
func Network(cfg NetworkConfig) (*NetworkResult, error) {
	cfg = cfg.withDefaults()
	tab, err := syntheticTable(rand.New(rand.NewSource(cfg.Seed+23)), cfg.Rows, cfg.Dims)
	if err != nil {
		return nil, err
	}
	streams, err := clientStreams(tab, cfg.Overload*cfg.MaxInFlight, cfg.QueriesPerClient, cfg.Seed+3000)
	if err != nil {
		return nil, err
	}
	baseSched, err := fault.ParseSchedule(networkServiceTime)
	if err != nil {
		return nil, err
	}
	chaosSched, err := fault.ParseSchedule(networkServiceTime + ";" + cfg.Faults)
	if err != nil {
		return nil, fmt.Errorf("network: bad fault schedule: %w", err)
	}

	res := &NetworkResult{Config: cfg}
	base, err := networkRun(cfg, tab, streams, fault.New(cfg.Seed, baseSched), false)
	if err != nil {
		return nil, err
	}
	res.Baseline = *base
	chaos, err := networkRun(cfg, tab, streams, fault.New(cfg.Seed, chaosSched), true)
	if err != nil {
		return nil, err
	}
	res.Chaos = *chaos

	if res.Chaos.Shed > 0 && res.Chaos.AcceptedP50 > 0 {
		res.ShedRatio = float64(res.Chaos.ShedP50) / float64(res.Chaos.AcceptedP50)
		res.ShedFast = res.ShedRatio < 0.10
	}
	if res.Baseline.AcceptedP99 > 0 {
		res.P99Ratio = float64(res.Chaos.AcceptedP99) / float64(res.Baseline.AcceptedP99)
		res.P99Bounded = res.P99Ratio <= 2.0
	}
	res.AccountingExact = res.Baseline.Exact && res.Chaos.Exact
	res.Metrics = snapshotOf(cfg.Metrics)
	return res, nil
}

// networkRun is one run: fresh model + frontend on a real loopback
// listener, closed-loop clients with retries disabled (so every outcome
// maps 1:1 to one issued request), outcome classification client-side and
// counter deltas server-side. inj carries the service time and, when
// faulted, the chaos schedule.
func networkRun(cfg NetworkConfig, tab *table.Table, streams [][]query.Range, inj *fault.Injector, faulted bool) (*NetworkPoint, error) {
	met := cfg.Metrics
	if met == nil {
		// Always instrument locally: the accounting cross-check needs the
		// server-side admission counters even when the caller wants no
		// snapshot.
		met = metrics.New()
	}
	cols := make([]int, cfg.Dims)
	for i := range cols {
		cols[i] = i
	}
	key := registry.NewKey("chaos", cols...)
	reg := registry.New(registry.Config{Metrics: met})
	defer reg.Close()
	if err := reg.Admit(key, tab, core.Config{
		Mode:       core.Heuristic,
		SampleSize: cfg.SampleSize,
		Seed:       cfg.Seed,
	}, core.ServeConfig{MaxBatch: cfg.MaxBatch}); err != nil {
		return nil, err
	}
	fe, err := httpserve.New(httpserve.Config{
		Registry:       reg,
		DefaultModel:   key.String(),
		MaxInFlight:    cfg.MaxInFlight,
		MaxQueue:       cfg.MaxQueue,
		DefaultTimeout: cfg.Timeout,
		RetryAfter:     5 * time.Millisecond,
		Metrics:        met,
		Faults:         inj,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// One transport per run: connection state (keep-alives severed by the
	// netdrop fault) must not leak into the next run's latencies.
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hcs := make([]*httpclient.Client, len(streams))
	for c := range hcs {
		// Retries disabled: the experiment classifies raw outcomes, so
		// each call must be exactly one wire request.
		if hcs[c], err = httpclient.New(httpclient.Config{
			BaseURL:    "http://" + ln.Addr().String(),
			HTTPClient: &http.Client{Transport: tr},
			MaxRetries: -1,
			Seed:       cfg.Seed + int64(c),
		}); err != nil {
			ln.Close()
			return nil, err
		}
	}
	hs := &http.Server{Handler: fe}
	go hs.Serve(ln)

	reqBefore := met.Counter("http.requests").Value()
	accBefore := met.Counter("http.accepted").Value()
	shedBefore := met.Counter("http.shed").Value()

	clients := len(streams)
	pt := &NetworkPoint{Faulted: faulted, Clients: clients}
	// Each sample's tag is the request's outcome, so no call returns an
	// error.
	const (
		accepted = iota
		shed
		failed
	)
	start := time.Now()
	samples, _ := runClients(clients, cfg.QueriesPerClient, func(c, i int) (int, error) {
		q := streams[c][i]
		_, err := hcs[c].Estimate(context.Background(), "", q.Lo, q.Hi)
		switch {
		case err == nil:
			return accepted, nil
		case errors.Is(err, httpclient.ErrShed):
			return shed, nil
		default:
			return failed, nil
		}
	}, nil)
	pt.Elapsed = time.Since(start)

	// Shut the edge down before reading counters: Drain (inside Close)
	// waits out in-flight handlers, so the deltas are final.
	if err := fe.Close(); err != nil {
		return nil, err
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return nil, err
	}

	var lats [failed + 1][]time.Duration
	for _, x := range samples {
		lats[x.tag] = append(lats[x.tag], x.lat)
	}
	pt.Accepted = len(lats[accepted])
	pt.Shed = len(lats[shed])
	pt.Failed = len(lats[failed])
	pt.Issued = clients * cfg.QueriesPerClient
	pt.AcceptedP50 = percentileDuration(lats[accepted], 0.50)
	pt.AcceptedP99 = percentileDuration(lats[accepted], 0.99)
	pt.ShedP50 = percentileDuration(lats[shed], 0.50)
	if sec := pt.Elapsed.Seconds(); sec > 0 {
		pt.AcceptedQPS = float64(pt.Accepted) / sec
	}
	pt.ServerRequests = met.Counter("http.requests").Value() - reqBefore
	pt.ServerAccepted = met.Counter("http.accepted").Value() - accBefore
	pt.ServerShed = met.Counter("http.shed").Value() - shedBefore
	pt.Delays = int64(inj.Fired(fault.NetDelay))
	pt.Errors5xx = int64(inj.Fired(fault.NetError))
	pt.Drops = int64(inj.Fired(fault.NetDrop))
	pt.Exact = pt.Accepted+pt.Shed+pt.Failed == pt.Issued &&
		pt.ServerAccepted == int64(pt.Accepted) &&
		pt.ServerShed == int64(pt.Shed) &&
		pt.ServerRequests == int64(pt.Issued)
	return pt, nil
}

// WriteTable renders both runs and the three resilience verdicts.
func (r *NetworkResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "network resilience: d=%d, model=%d points, %d clients over %d slots + %d queue (%d× overload), service=%q, faults=%q\n",
		r.Config.Dims, r.Config.SampleSize, r.Chaos.Clients,
		r.Config.MaxInFlight, r.Config.MaxQueue, r.Config.Overload, networkServiceTime, r.Config.Faults)
	fmt.Fprintf(w, "%9s  %7s  %9s  %6s  %7s  %12s  %12s  %10s  %8s  %6s\n",
		"run", "issued", "accepted", "shed", "failed", "acc p50", "acc p99", "shed p50", "acc qps", "exact")
	for _, p := range []NetworkPoint{r.Baseline, r.Chaos} {
		name := "baseline"
		if p.Faulted {
			name = "chaos"
		}
		fmt.Fprintf(w, "%9s  %7d  %9d  %6d  %7d  %12s  %12s  %10s  %8.0f  %6v\n",
			name, p.Issued, p.Accepted, p.Shed, p.Failed,
			p.AcceptedP50, p.AcceptedP99, p.ShedP50, p.AcceptedQPS, p.Exact)
	}
	fmt.Fprintf(w, "injected faults: %d delays, %d 5xx, %d connection drops\n",
		r.Chaos.Delays, r.Chaos.Errors5xx, r.Chaos.Drops)
	fmt.Fprintf(w, "shed p50 / accepted p50 = %.3f (fast rejection: %v)\n", r.ShedRatio, r.ShedFast)
	fmt.Fprintf(w, "chaos p99 / baseline p99 = %.2f (bounded tail: %v)\n", r.P99Ratio, r.P99Bounded)
	fmt.Fprintf(w, "accounting exact across both runs: %v\n", r.AccountingExact)
}
