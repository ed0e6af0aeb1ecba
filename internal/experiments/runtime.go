package experiments

import (
	"fmt"
	"io"
	"time"

	"kdesel/internal/core"
	"kdesel/internal/gpu"
	"kdesel/internal/metrics"
	"kdesel/internal/query"
	"kdesel/internal/stholes"
	"kdesel/internal/table"
	"kdesel/internal/workload"

	"math/rand"
)

// RuntimeConfig parameterizes the §6.4 experiment (Figure 7): estimator
// runtime overhead versus model size on CPU and GPU, for Heuristic,
// Adaptive, and STHoles.
type RuntimeConfig struct {
	// Dims is the table dimensionality (paper: 8).
	Dims int
	// Sizes are the model sizes (KDE sample points) to sweep
	// (paper: 1K to 1M doubling; default a 1K–64K subset).
	Sizes []int
	// Queries per measurement (paper: 100 UV queries).
	Queries int
	// Rows in the synthetic table (paper: 3M; default max(Sizes)+Queries).
	Rows int
	// Seed drives all randomness.
	Seed int64
	// HostWorkers, when non-empty, additionally measures the real host
	// execution path (no simulated device) at each listed worker count.
	// Unlike the simulated points, these report actual wall-clock
	// nanoseconds on the machine running the experiment, so they surface
	// the host parallel runtime's scaling rather than the paper's modeled
	// hardware.
	HostWorkers []int
	// Metrics, when non-nil, instruments every KDE estimator built during
	// the run; the result carries a final snapshot.
	Metrics *metrics.Registry
}

func (c RuntimeConfig) withDefaults() RuntimeConfig {
	if c.Dims <= 0 {
		c.Dims = 8
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{1024, 4096, 16384, 65536}
	}
	if c.Queries <= 0 {
		c.Queries = 100
	}
	if c.Rows <= 0 {
		maxSize := 0
		for _, s := range c.Sizes {
			if s > maxSize {
				maxSize = s
			}
		}
		c.Rows = maxSize + 1000
	}
	return c
}

// RuntimePoint is one point of Figure 7: the per-query estimation overhead
// of one estimator variant at one model size.
type RuntimePoint struct {
	Estimator string // "Heuristic", "Adaptive", "STHoles"
	Device    string // "gpu", "cpu", "host" (wall clock), or "seq" for the sequential STHoles
	Size      int
	PerQuery  time.Duration
	Workers   int // host-path worker count; 0 for simulated/sequential points
}

// RuntimeResult aggregates the Figure 7 sweep.
type RuntimeResult struct {
	Config RuntimeConfig
	Points []RuntimePoint
	// Metrics is the instrumentation snapshot at the end of the run; nil
	// when Config.Metrics was nil.
	Metrics *metrics.Snapshot
}

// stholesPerBucketCost models the sequential per-bucket estimation cost of
// the STHoles implementation (box intersection and volume math per bucket,
// ~22.5 ns per dimension on the paper's host CPU). Calibrated so STHoles is
// slower than KDE for large same-memory models, as in Figure 7.
const stholesPerBucketCostPerDim = 23 * time.Nanosecond

// Runtime runs the Figure 7 sweep. KDE estimators execute on simulated CPU
// and GPU devices and report simulated per-query overhead. Following §6.4,
// the Adaptive overhead counts the full estimation pass plus only the
// launch/transfer latencies of the maintenance work, whose computation is
// hidden behind the query's execution; and the STHoles measurement covers
// estimation only (model maintenance excluded) at the full model size.
func Runtime(cfg RuntimeConfig) (*RuntimeResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	tab, err := syntheticTable(rng, cfg.Rows, cfg.Dims)
	if err != nil {
		return nil, err
	}
	fbs, err := labelledWorkload(tab, workload.UV, cfg.Queries, rng)
	if err != nil {
		return nil, err
	}

	res := &RuntimeResult{Config: cfg}
	profiles := []struct {
		label   string
		profile gpu.Profile
	}{
		{"gpu", gpu.GTX460()},
		{"cpu", gpu.XeonE5620()},
	}
	for _, size := range cfg.Sizes {
		for _, p := range profiles {
			heur, err := measureHeuristic(tab, size, p.profile, cfg.Seed, fbs, cfg.Metrics)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, RuntimePoint{"Heuristic", p.label, size, heur, 0})
			adpt, err := measureAdaptive(tab, size, p.profile, cfg.Seed, fbs, cfg.Metrics)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, RuntimePoint{"Adaptive", p.label, size, adpt, 0})
		}
		for _, w := range cfg.HostWorkers {
			host, err := measureHostHeuristic(tab, size, cfg.Seed, fbs, w, cfg.Metrics)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, RuntimePoint{"Heuristic", "host", size, host, w})
		}
		// STHoles at the same memory footprint, sequential estimation cost.
		buckets := stholes.MaxBucketsForBudget(size*8*cfg.Dims, cfg.Dims)
		per := time.Duration(buckets*cfg.Dims) * stholesPerBucketCostPerDim
		res.Points = append(res.Points, RuntimePoint{"STHoles", "seq", size, per, 0})
	}
	res.Metrics = snapshotOf(cfg.Metrics)
	return res, nil
}

// measureHostHeuristic times the real (non-simulated) host execution path:
// wall-clock per-query estimation cost with the host parallel runtime at
// the given worker count.
func measureHostHeuristic(tab *table.Table, size int, seed int64, fbs []query.Feedback, workers int, reg *metrics.Registry) (time.Duration, error) {
	est, err := core.Build(tab, core.Config{
		Mode: core.Heuristic, SampleSize: size, Seed: seed, Workers: workers,
		Metrics: reg,
	})
	if err != nil {
		return 0, err
	}
	// One warm-up pass primes scratch pools so the measurement reflects
	// steady state.
	if _, err := est.Estimate(fbs[0].Query); err != nil {
		return 0, err
	}
	start := time.Now()
	for _, fb := range fbs {
		if _, err := est.Estimate(fb.Query); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(len(fbs)), nil
}

func measureHeuristic(tab *table.Table, size int, profile gpu.Profile, seed int64, fbs []query.Feedback, reg *metrics.Registry) (time.Duration, error) {
	dev, err := gpu.NewDevice(profile)
	if err != nil {
		return 0, err
	}
	est, err := core.Build(tab, core.Config{
		Mode: core.Heuristic, SampleSize: size, Seed: seed, Device: dev,
		Metrics: reg,
	})
	if err != nil {
		return 0, err
	}
	dev.ResetStats()
	for _, fb := range fbs {
		if _, err := est.Estimate(fb.Query); err != nil {
			return 0, err
		}
	}
	return dev.Clock() / time.Duration(len(fbs)), nil
}

func measureAdaptive(tab *table.Table, size int, profile gpu.Profile, seed int64, fbs []query.Feedback, reg *metrics.Registry) (time.Duration, error) {
	dev, err := gpu.NewDevice(profile)
	if err != nil {
		return 0, err
	}
	est, err := core.Build(tab, core.Config{
		Mode: core.Adaptive, SampleSize: size, Seed: seed, Device: dev,
		Metrics: reg,
	})
	if err != nil {
		return 0, err
	}
	dev.ResetStats()
	var overhead time.Duration
	for _, fb := range fbs {
		before := dev.Stats()
		if _, err := est.Estimate(fb.Query); err != nil {
			return 0, err
		}
		afterEst := dev.Stats()
		overhead += afterEst.Clock - before.Clock
		if err := est.Feedback(fb.Query, fb.Actual); err != nil {
			return 0, err
		}
		afterFb := dev.Stats()
		// The maintenance computation overlaps the query's execution in
		// the database (§5.5); only its launch and transfer latencies plus
		// the wire time of its small payloads remain visible.
		overhead += latencyOnly(profile, afterEst, afterFb)
	}
	return overhead / time.Duration(len(fbs)), nil
}

// latencyOnly charges kernel-launch and transfer latencies plus wire time
// for the activity between two stats snapshots, excluding per-item compute.
func latencyOnly(p gpu.Profile, from, to gpu.Stats) time.Duration {
	launches := to.KernelLaunches - from.KernelLaunches
	transfers := to.Transfers - from.Transfers
	bytes := float64(to.BytesToDevice - from.BytesToDevice + to.BytesFromDevice - from.BytesFromDevice)
	d := time.Duration(launches)*p.LaunchLatency + time.Duration(transfers)*p.TransferLatency
	d += time.Duration(bytes / p.TransferBandwidth * float64(time.Second))
	return d
}

// WriteTable renders the sweep as the series of Figure 7. Host-path points
// (real wall clock, see RuntimeConfig.HostWorkers) carry their worker
// count in the dev column.
func (r *RuntimeResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# Estimator runtime overhead vs model size (%dD synthetic, UV workload)\n", r.Config.Dims)
	fmt.Fprintf(w, "%-10s %-7s %10s %14s\n", "estimator", "dev", "size", "per-query")
	for _, p := range r.Points {
		dev := p.Device
		if p.Workers > 0 {
			dev = fmt.Sprintf("%s/%d", p.Device, p.Workers)
		}
		fmt.Fprintf(w, "%-10s %-7s %10d %14s\n", p.Estimator, dev, p.Size, p.PerQuery)
	}
}
