package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"kdesel/internal/core"
	"kdesel/internal/mathx"
	"kdesel/internal/metrics"
	"kdesel/internal/query"
	"kdesel/internal/table"
	"kdesel/internal/workload"
)

// ThroughputConfig parameterizes the serving-path experiment: closed-loop
// concurrent clients driving one estimator through the coalescing server,
// swept over client counts. It quantifies what request coalescing buys —
// one fused traversal amortized over a whole batch — versus serializing
// every query behind the model mutex.
type ThroughputConfig struct {
	// Dims is the table dimensionality (default 8).
	Dims int
	// SampleSize is the KDE model size (default 4096).
	SampleSize int
	// Rows in the synthetic table (default SampleSize + 1000).
	Rows int
	// Clients are the closed-loop client counts to sweep (default
	// 1, 4, 16, 64). Each client issues its next query as soon as the
	// previous answer arrives.
	Clients []int
	// QueriesPerClient is each client's query budget per sweep point
	// (default 300).
	QueriesPerClient int
	// MaxBatch caps the coalescer's batch (default serve.DefaultMaxBatch).
	// MaxBatch ≤ 1 measures the uncoalesced mutex path.
	MaxBatch int
	// Seed drives all randomness.
	Seed int64
	// Metrics, when non-nil, instruments the estimator and the serve layer;
	// the result carries a final snapshot.
	Metrics *metrics.Registry
	// ProfileLabel tags the coalescer's scheduler goroutine in CPU profiles
	// (kdebench -profile-serve).
	ProfileLabel bool
	// Precision selects the serving tier (core.ServeConfig.Precision); the
	// result records the tier actually served after the verify gate.
	Precision mathx.Precision
}

func (c ThroughputConfig) withDefaults() ThroughputConfig {
	if c.Dims <= 0 {
		c.Dims = 8
	}
	if c.SampleSize <= 0 {
		c.SampleSize = 4096
	}
	if c.Rows <= 0 {
		c.Rows = c.SampleSize + 1000
	}
	if len(c.Clients) == 0 {
		c.Clients = []int{1, 4, 16, 64}
	}
	if c.QueriesPerClient <= 0 {
		c.QueriesPerClient = 300
	}
	return c
}

// ThroughputPoint is one sweep point: aggregate queries per second at a
// given concurrency, plus how well the coalescer filled its batches.
type ThroughputPoint struct {
	Clients  int
	Queries  int
	Elapsed  time.Duration
	QPS      float64
	Batches  int64   // evaluations performed (0 when coalescing is off)
	AvgBatch float64 // mean queries per evaluation (0 when coalescing is off)
}

// ThroughputResult aggregates the concurrency sweep.
type ThroughputResult struct {
	Config  ThroughputConfig
	Points  []ThroughputPoint
	Metrics *metrics.Snapshot
	// ActivePrecision is the tier estimates were actually served from —
	// Config.Precision unless the publish-time verify gate refused it.
	ActivePrecision mathx.Precision
}

// Throughput runs the closed-loop concurrency sweep. Every sweep point
// serves the same per-client query streams (deterministic in Seed), so
// points differ only in concurrency.
func Throughput(cfg ThroughputConfig) (*ThroughputResult, error) {
	cfg = cfg.withDefaults()
	tab, err := syntheticTable(rand.New(rand.NewSource(cfg.Seed+11)), cfg.Rows, cfg.Dims)
	if err != nil {
		return nil, err
	}

	res := &ThroughputResult{Config: cfg}
	for _, clients := range cfg.Clients {
		// Per-client query streams, regenerated identically per point.
		streams, err := clientStreams(tab, clients, cfg.QueriesPerClient, cfg.Seed+1000)
		if err != nil {
			return nil, err
		}

		est, err := core.Build(tab, core.Config{
			Mode:       core.Heuristic,
			SampleSize: cfg.SampleSize,
			Seed:       cfg.Seed,
			Metrics:    cfg.Metrics,
		})
		if err != nil {
			return nil, err
		}
		reg := cfg.Metrics
		if reg == nil {
			// Always instrument the serve layer locally: batch counts feed
			// the result table even when the caller wants no snapshot.
			reg = metrics.New()
		}
		batchesBefore := reg.Histogram("serve.batch_size").Count()
		queriesBefore := reg.Histogram("serve.batch_size").Sum()
		srv := core.NewServer(est, core.ServeConfig{
			MaxBatch:     cfg.MaxBatch,
			Metrics:      reg,
			ProfileLabel: cfg.ProfileLabel,
			Precision:    cfg.Precision,
		})
		res.ActivePrecision = srv.ActivePrecision()

		start := time.Now()
		_, err = runClients(clients, cfg.QueriesPerClient, func(c, i int) (int, error) {
			_, err := srv.Estimate(streams[c][i])
			return 0, err
		}, nil)
		elapsed := time.Since(start)
		// Capture before Close: Close retires the coalescer, so afterwards
		// Coalescing reports false even for a run that batched throughout.
		coalesced := srv.Coalescing()
		srv.Close()
		if err != nil {
			return nil, err
		}

		total := clients * cfg.QueriesPerClient
		pt := ThroughputPoint{
			Clients: clients,
			Queries: total,
			Elapsed: elapsed,
			QPS:     float64(total) / elapsed.Seconds(),
		}
		if coalesced {
			pt.Batches = reg.Histogram("serve.batch_size").Count() - batchesBefore
			if pt.Batches > 0 {
				pt.AvgBatch = (reg.Histogram("serve.batch_size").Sum() - queriesBefore) / float64(pt.Batches)
			}
		}
		res.Points = append(res.Points, pt)
	}
	res.Metrics = snapshotOf(cfg.Metrics)
	return res, nil
}

// WriteTable renders the sweep in the style of the paper's runtime tables.
func (r *ThroughputResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "serving throughput: d=%d, model=%d points, maxBatch=%d\n",
		r.Config.Dims, r.Config.SampleSize, r.Config.MaxBatch)
	fmt.Fprintf(w, "%8s  %10s  %12s  %10s  %9s\n", "clients", "queries", "elapsed", "qps", "avg batch")
	for _, p := range r.Points {
		avg := "-"
		if p.AvgBatch > 0 {
			avg = fmt.Sprintf("%.1f", p.AvgBatch)
		}
		fmt.Fprintf(w, "%8d  %10d  %12s  %10.0f  %9s\n", p.Clients, p.Queries, p.Elapsed.Round(time.Millisecond), p.QPS, avg)
	}
}

// AnalyzeLoadConfig parameterizes the closed-loop ANALYZE-under-load
// experiment: concurrent clients keep estimating while a writer fires
// Reoptimize (the ANALYZE step) mid-run, and the estimate latency tail is
// measured inside the ANALYZE windows. Run twice — once with every estimate
// serialized behind the writer mutex (the pre-snapshot behavior) and once
// serving from the published snapshot — the p99 ratio is what snapshot
// isolation buys.
type AnalyzeLoadConfig struct {
	// Dims is the table dimensionality (default 4).
	Dims int
	// SampleSize is the KDE model size (default 2048) — also the main knob
	// for how long one ANALYZE holds the writer lock.
	SampleSize int
	// Rows in the synthetic table (default SampleSize + 1000).
	Rows int
	// Clients is the closed-loop estimate client count (default 8).
	Clients int
	// Feedback is the ANALYZE training-set size (default 100).
	Feedback int
	// Rounds is how many ANALYZE passes the writer fires per run (default 3).
	Rounds int
	// MaxBatch caps the coalescer's batch (default as in ServeConfig;
	// MaxBatch ≤ 1 disables coalescing so each estimate takes the direct path).
	MaxBatch int
	// Seed drives all randomness.
	Seed int64
	// Metrics, when non-nil, instruments the snapshot-path run; the result
	// carries a final registry snapshot.
	Metrics *metrics.Registry
}

func (c AnalyzeLoadConfig) withDefaults() AnalyzeLoadConfig {
	if c.Dims <= 0 {
		c.Dims = 4
	}
	if c.SampleSize <= 0 {
		c.SampleSize = 2048
	}
	if c.Rows <= 0 {
		c.Rows = c.SampleSize + 1000
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Feedback <= 0 {
		c.Feedback = 100
	}
	if c.Rounds <= 0 {
		c.Rounds = 3
	}
	return c
}

// AnalyzeLoadPoint is one run of the experiment: estimate-latency tail
// statistics over the queries that completed entirely inside an ANALYZE
// window, for one serving configuration.
type AnalyzeLoadPoint struct {
	Serialized    bool          // true: estimates serialized behind the writer mutex
	Queries       int           // estimates completed over the whole run
	During        int           // estimates whose lifetime overlapped an ANALYZE window
	P50, P99, Max time.Duration // latency of the During population
	AnalyzeRounds int
	AnalyzeTotal  time.Duration // cumulative wall time spent inside Reoptimize
}

// AnalyzeLoadResult pairs the serialized baseline with the snapshot-path
// run over the identical workload.
type AnalyzeLoadResult struct {
	Config     AnalyzeLoadConfig
	Serialized AnalyzeLoadPoint
	Snapshot   AnalyzeLoadPoint
	// Speedup is serialized p99 / snapshot p99 inside ANALYZE windows — the
	// acceptance figure for snapshot isolation (≥ 10× expected: serialized
	// estimates queue behind the full re-optimization, snapshot estimates
	// keep serving the pre-ANALYZE model).
	Speedup float64
	Metrics *metrics.Snapshot
}

// AnalyzeUnderLoad runs the closed-loop experiment twice over one table and
// workload: serialized baseline first, then snapshot-isolated serving.
func AnalyzeUnderLoad(cfg AnalyzeLoadConfig) (*AnalyzeLoadResult, error) {
	cfg = cfg.withDefaults()
	tab, err := syntheticTable(rand.New(rand.NewSource(cfg.Seed+17)), cfg.Rows, cfg.Dims)
	if err != nil {
		return nil, err
	}
	// ANALYZE training set: true selectivities over a generated workload.
	train, err := labelledWorkload(tab, workload.UV, cfg.Feedback, rand.New(rand.NewSource(cfg.Seed+29)))
	if err != nil {
		return nil, err
	}
	// Per-client query streams, identical across both runs.
	streams, err := clientStreams(tab, cfg.Clients, 256, cfg.Seed+2000)
	if err != nil {
		return nil, err
	}

	res := &AnalyzeLoadResult{Config: cfg}
	for _, serialize := range []bool{true, false} {
		var reg *metrics.Registry
		if !serialize {
			reg = cfg.Metrics
		}
		pt, err := analyzeLoadRun(cfg, tab, train, streams, serialize, reg)
		if err != nil {
			return nil, err
		}
		if serialize {
			res.Serialized = *pt
		} else {
			res.Snapshot = *pt
		}
	}
	if res.Snapshot.P99 > 0 {
		res.Speedup = float64(res.Serialized.P99) / float64(res.Snapshot.P99)
	}
	res.Metrics = snapshotOf(cfg.Metrics)
	return res, nil
}

// analyzeLoadRun is one serving configuration: clients estimate in a closed
// loop while the writer fires cfg.Rounds ANALYZE passes, recording each
// pass's wall-clock window. A latency counts as "during ANALYZE" when the
// estimate's lifetime overlaps a window — which captures the serialized
// pathology, where an estimate issued just before ANALYZE blocks on the
// writer mutex for the whole pass and completes after the window closes.
func analyzeLoadRun(cfg AnalyzeLoadConfig, tab *table.Table, train []query.Feedback,
	streams [][]query.Range, serialize bool, reg *metrics.Registry) (*AnalyzeLoadPoint, error) {
	est, err := core.Build(tab, core.Config{
		Mode:       core.Heuristic,
		SampleSize: cfg.SampleSize,
		Seed:       cfg.Seed,
		Metrics:    reg,
	})
	if err != nil {
		return nil, err
	}
	srv := core.NewServer(est, core.ServeConfig{
		MaxBatch:           cfg.MaxBatch,
		Metrics:            reg,
		SerializeEstimates: serialize,
	})
	defer srv.Close()

	var served atomic.Int64
	estimate := func(c, i int) (int, error) {
		qs := streams[c]
		if _, err := srv.Estimate(qs[i%len(qs)]); err != nil {
			return 0, err
		}
		served.Add(1)
		return 0, nil
	}
	// Writer: wait for the client loops to warm up, then fire the ANALYZE
	// rounds with a served-traffic gap between them so the run also samples
	// quiescent latencies.
	waitServed := func(target int64) {
		for served.Load() < target {
			time.Sleep(100 * time.Microsecond)
		}
	}
	var windows []interval
	pt := &AnalyzeLoadPoint{Serialized: serialize, AnalyzeRounds: cfg.Rounds}
	samples, err := runClients(cfg.Clients, 0, estimate, func() error {
		waitServed(int64(2 * cfg.Clients))
		for r := 0; r < cfg.Rounds; r++ {
			t0 := time.Now()
			err := srv.Reoptimize(train)
			t1 := time.Now()
			windows = append(windows, interval{t0, t1})
			pt.AnalyzeTotal += t1.Sub(t0)
			if err != nil {
				return err
			}
			waitServed(served.Load() + int64(2*cfg.Clients))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	during := splitLegs(samples, nil, windows).during
	pt.Queries = len(samples)
	pt.During = len(during)
	pt.P50 = percentileDuration(during, 0.50)
	pt.P99 = percentileDuration(during, 0.99)
	pt.Max = percentileDuration(during, 1.0)
	return pt, nil
}

// WriteTable renders the paired runs and the p99 speedup.
func (r *AnalyzeLoadResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "ANALYZE under load: d=%d, model=%d points, %d clients, %d-feedback ANALYZE × %d\n",
		r.Config.Dims, r.Config.SampleSize, r.Config.Clients, r.Config.Feedback, r.Config.Rounds)
	fmt.Fprintf(w, "%12s  %9s  %8s  %12s  %12s  %12s  %14s\n",
		"serving", "queries", "during", "p50", "p99", "max", "analyze total")
	for _, p := range []AnalyzeLoadPoint{r.Serialized, r.Snapshot} {
		name := "snapshot"
		if p.Serialized {
			name = "serialized"
		}
		fmt.Fprintf(w, "%12s  %9d  %8d  %12s  %12s  %12s  %14s\n",
			name, p.Queries, p.During, p.P50, p.P99, p.Max, p.AnalyzeTotal.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "p99 speedup inside ANALYZE windows: %.1f×\n", r.Speedup)
}
