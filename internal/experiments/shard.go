package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"kdesel/internal/bandwidth"
	"kdesel/internal/metrics"
	"kdesel/internal/shard"
	"kdesel/internal/workload"
)

// ShardLoadConfig parameterizes the shard-isolation experiment: one
// sharded group (internal/shard) serves closed-loop estimate traffic
// while back-to-back ANALYZEs re-optimize the bandwidth over a single
// target shard's sample mid-run. The claim under test is the per-shard
// lifecycle contract: ANALYZE copies the target shard's sample under
// that shard's lock alone and optimizes on the copy lock-free, so the
// scatter/gather path — which reads every shard, including the one
// being analyzed, through the lock-free published snapshot — never
// stalls. The acceptance figure is the gather p99 during the ANALYZE
// window staying within 2× the quiescent gather p99.
//
// Like the registry experiment, the quiescent phase is load-matched, but
// with a stronger control: the quiescent legs dry-run the same bandwidth
// optimization the churn-leg ANALYZEs run — same sample size, same
// training set — and discard the result. Both phases then carry
// identical scheduler AND allocator pressure (the optimizer allocates
// heavily, and on a small host the GC assists it triggers tax the client
// goroutines; a pure spin-loop burner would hide that in the quiescent
// leg and the ratio would measure garbage collection, not lock coupling).
// The two phases are also interleaved — Rounds alternating pairs of
// quiescent and churn legs — so slow host intervals (noisy neighbors,
// frequency dips) fall on both pools instead of deciding the ratio.
type ShardLoadConfig struct {
	// Shards is the group's partition count K (default 4).
	Shards int
	// Dims is the synthetic table dimensionality (default 3).
	Dims int
	// Rows in the synthetic table (default 8000).
	Rows int
	// SampleSize is the group's total KDE sample size, partitioned across
	// the shards (default 2048).
	SampleSize int
	// Clients is the closed-loop client count (default 2). On a 1-CPU
	// host more clients mainly measure runqueue depth: every extra
	// CPU-bound goroutine adds a ~10ms scheduler timeslice to the worst
	// request tails in BOTH phases, burying the coupling signal in noise.
	Clients int
	// Duration is the minimum wall-clock length of each leg: a leg runs
	// whole optimizations back to back until Duration has elapsed, so a
	// leg is never shorter than one optimization (default 1s).
	Duration time.Duration
	// Rounds is how many quiescent+churn leg pairs to interleave
	// (default 3). More rounds spread host-level noise more evenly
	// across the two pools.
	Rounds int
	// Feedback is the ANALYZE training-set size (default 64).
	Feedback int
	// Workers bounds the scatter pool (0: GOMAXPROCS).
	Workers int
	// Seed drives all randomness.
	Seed int64
	// Metrics, when non-nil, receives the group's shard.* instruments; the
	// result carries a final snapshot.
	Metrics *metrics.Registry
}

func (c ShardLoadConfig) withDefaults() ShardLoadConfig {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Dims <= 0 {
		c.Dims = 3
	}
	if c.Rows <= 0 {
		c.Rows = 8000
	}
	if c.SampleSize <= 0 {
		c.SampleSize = 2048
	}
	if c.Clients <= 0 {
		c.Clients = 2
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Rounds <= 0 {
		c.Rounds = 3
	}
	if c.Feedback <= 0 {
		c.Feedback = 64
	}
	if c.Metrics == nil {
		c.Metrics = metrics.New()
	}
	return c
}

// ShardLoadResult aggregates the shard-isolation run.
type ShardLoadResult struct {
	Config ShardLoadConfig
	// ShardSizes is the per-shard sample ownership after Build.
	ShardSizes []int
	// Target is the shard index the mid-run ANALYZEs optimized over.
	Target int
	// Analyzes counts the ANALYZEs run across all churn legs.
	Analyzes int
	// AnalyzeWindow is the total churn-leg wall-clock time.
	AnalyzeWindow time.Duration
	// Served counts completed estimates; DuringN those whose lifetime
	// overlapped the ANALYZE window.
	Served  int
	DuringN int
	// QuiescentP99/DuringP99 are the gather tail latencies pooled over all
	// legs of each phase (display figures).
	QuiescentP99 time.Duration
	DuringP99    time.Duration
	// RoundRatios holds one paired ratio per round: the churn-leg gather
	// p99 over the p99 of the immediately preceding quiescent leg. Pairing
	// adjacent legs and judging rounds independently is the defense
	// against hypervisor steal on a shared 1-vCPU host: a ~100ms stall
	// burst lands inside one leg of one round and wrecks that round's
	// ratio only. Rounds whose legs have fewer than minDuringSamples
	// observations are omitted.
	RoundRatios []float64
	// Ratio is the median of RoundRatios (0 when no round qualified) —
	// the isolation verdict figure.
	Ratio float64
	// BandwidthChanged reports that the ANALYZE actually installed a new
	// bandwidth (the run exercised an optimization, not a no-op).
	BandwidthChanged bool
	// DriftMax is the largest |estimate difference| between a pre- and
	// post-ANALYZE probe of the same query set — evidence the install was
	// atomic and the model still answers plausibly.
	DriftMax float64
	Metrics  *metrics.Snapshot
}

// ShardLoad runs the shard-isolation experiment.
func ShardLoad(cfg ShardLoadConfig) (*ShardLoadResult, error) {
	cfg = cfg.withDefaults()

	tab, err := syntheticTable(rand.New(rand.NewSource(cfg.Seed+211)), cfg.Rows, cfg.Dims)
	if err != nil {
		return nil, err
	}

	g, err := shard.Build(tab, shard.Config{
		Shards:     cfg.Shards,
		SampleSize: cfg.SampleSize,
		Seed:       cfg.Seed,
		Workers:    cfg.Workers,
		Metrics:    cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	defer g.Close()

	qrng := rand.New(rand.NewSource(cfg.Seed + 223))
	stream, err := workload.Generate(tab, workload.UV, 256, workload.Config{}, qrng)
	if err != nil {
		return nil, err
	}
	train, err := labelledWorkload(tab, workload.UV, cfg.Feedback, rand.New(rand.NewSource(cfg.Seed+227)))
	if err != nil {
		return nil, err
	}

	// Pre-ANALYZE probe of a fixed query set, for the drift figure.
	probe := stream[:16]
	pre := make([]float64, len(probe))
	for i, q := range probe {
		if pre[i], err = g.Estimate(q); err != nil {
			return nil, err
		}
	}
	h0 := g.Bandwidth()

	crngs := clientRands(cfg.Clients, cfg.Seed+7000)
	estimate := func(c, _ int) (int, error) {
		_, err := g.Estimate(stream[crngs[c].Intn(len(stream))])
		return 0, err
	}

	// Alternating paired phases: each round runs a quiescent leg — the
	// load-matched burner dry-running the same bandwidth optimization the
	// ANALYZE runs, result discarded — then a churn leg of real
	// AnalyzeShard calls on the target shard, with closed-loop traffic
	// flowing throughout. Interleaving the legs is what makes the ratio
	// trustworthy on a shared host: a noisy-neighbor stall or frequency
	// dip spanning a few seconds inflates one leg of one round, not every
	// sample of one phase, and the pooled percentiles absorb it. The
	// sequential quiescent-then-churn design this replaces measured
	// exactly that drift — a null experiment with the churn leg swapped
	// for the identical dry-run optimizer still produced "ratios" from
	// 0.8 to 6.
	target := 0 // first shard: always non-empty
	burnFlat, err := tab.SampleFlat(g.ShardSizes()[target], rand.New(rand.NewSource(cfg.Seed+229)))
	if err != nil {
		return nil, err
	}
	brng := rand.New(rand.NewSource(cfg.Seed + 233))
	var (
		quiesIv, churnIv []interval
		analyzes         int
		analyzeTotal     time.Duration
	)
	// Rounds -2 and -1 are untimed warm-ups running the full round body:
	// a cold process pays ramp costs for its first couple of seconds —
	// heap growing to steady state with the GC pacer re-targeting every
	// cycle, first-touch page faults — and a single warm-up call proved
	// too short (a cold process's first timed round still ran ~3× slower
	// process-wide, and unevenly across legs).
	samples, err := runClients(cfg.Clients, 0, estimate, func() error {
		for r := -2; r < cfg.Rounds; r++ {
			qs := time.Now()
			for n := 0; n == 0 || time.Since(qs) < cfg.Duration; n++ {
				if _, err := bandwidth.Optimal(burnFlat, cfg.Dims, train, bandwidth.OptimalConfig{
					Rand: brng, Workers: cfg.Workers,
				}); err != nil {
					return fmt.Errorf("burner optimize: %w", err)
				}
			}
			cs := time.Now()
			for n := 0; n == 0 || time.Since(cs) < cfg.Duration; n++ {
				if err := g.AnalyzeShard(target, train); err != nil {
					return fmt.Errorf("analyze shard %d: %w", target, err)
				}
				analyzes++
			}
			ce := time.Now()
			if r >= 0 {
				quiesIv = append(quiesIv, interval{qs, cs})
				churnIv = append(churnIv, interval{cs, ce})
				analyzeTotal += ce.Sub(cs)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &ShardLoadResult{
		Config:        cfg,
		ShardSizes:    g.ShardSizes(),
		Target:        target,
		Analyzes:      analyzes,
		AnalyzeWindow: analyzeTotal,
	}
	h1 := g.Bandwidth()
	for j := range h0 {
		if h0[j] != h1[j] {
			res.BandwidthChanged = true
		}
	}
	for i, q := range probe {
		post, err := g.Estimate(q)
		if err != nil {
			return nil, err
		}
		if math.IsNaN(post) || post < 0 || post > 1 {
			return nil, fmt.Errorf("post-analyze probe escaped [0,1]: %g", post)
		}
		if d := math.Abs(post - pre[i]); d > res.DriftMax {
			res.DriftMax = d
		}
	}

	legs := splitLegs(samples, quiesIv, churnIv)
	res.Served = len(samples)
	res.DuringN = len(legs.during)
	res.QuiescentP99 = percentileDuration(legs.quiescent, 0.99)
	res.DuringP99 = percentileDuration(legs.during, 0.99)
	res.RoundRatios, res.Ratio = legs.roundRatios()
	res.Metrics = snapshotOf(cfg.Metrics)
	return res, nil
}

// WriteTable renders the shard layout, the two-phase tail latencies, and
// the isolation verdict.
func (r *ShardLoadResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "shard isolation: K=%d shards %v, %d clients, %d rounds, %d analyzes on shard %d (%s churn)\n",
		r.Config.Shards, r.ShardSizes, r.Config.Clients, r.Config.Rounds, r.Analyzes, r.Target, r.AnalyzeWindow.Round(time.Millisecond))
	fmt.Fprintf(w, "%-10s  %8s  %7s  %14s  %14s\n",
		"phase", "served", "during", "quiescent p99", "during p99")
	fmt.Fprintf(w, "%-10s  %8d  %7d  %14s  %14s\n",
		"gather", r.Served, r.DuringN, r.QuiescentP99, r.DuringP99)
	fmt.Fprintf(w, "round ratios (churn p99 / adjacent quiescent p99):")
	for _, rr := range r.RoundRatios {
		fmt.Fprintf(w, " %.2f", rr)
	}
	if len(r.RoundRatios) == 0 {
		fmt.Fprintf(w, " - (too few samples)")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "analyze: bandwidth changed: %v; max probe drift %.4f\n",
		r.BandwidthChanged, r.DriftMax)
	verdict := "PASS"
	if r.Ratio > 2 {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "isolation: median during/quiescent gather p99 ratio = %.2f (≤ 2 wanted): %s\n",
		r.Ratio, verdict)
}
