package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"kdesel/internal/core"
	"kdesel/internal/ingest"
	"kdesel/internal/metrics"
	"kdesel/internal/query"
	"kdesel/internal/registry"
	"kdesel/internal/table"
	"kdesel/internal/workload"
)

// IngestLoadConfig parameterizes the continuous-ingestion experiment: a
// registry-served model (sharded or not) answers closed-loop estimate
// traffic while the §6.5 evolving-cluster mutation stream replays into its
// table through the bounded-lag ingestion bridge. The claim under test is
// the PR's serving contract: batched apply under the writer lock with one
// snapshot republish per batch keeps the lock-free estimate path within 2×
// of its quiescent tail even under sustained ingest.
//
// Like the shard experiment, rounds interleave paired legs — a quiescent
// leg with serving traffic only, then a churn leg with the mutation replay
// running at Rate — so host-level noise (hypervisor steal, frequency dips)
// lands on both pools instead of deciding the ratio. Unlike the shard
// experiment the quiescent leg is deliberately NOT load-matched: the extra
// work of ingestion is exactly what the acceptance bar prices in, so the
// ratio measures the full cost of sustained ingest (apply batches, feed
// recording, drift windows), not just lock coupling.
type IngestLoadConfig struct {
	// Dims is the evolving workload's dimensionality (default 3).
	Dims int
	// Rows is the initial table load (default 6000).
	Rows int
	// SampleSize is the model's KDE sample size (default 1024).
	SampleSize int
	// Shards is the group's partition count; 0 or 1 serve unsharded
	// (default 0).
	Shards int
	// Clients is the closed-loop estimate client count (default 2).
	Clients int
	// Duration is the wall-clock length of each leg (default 1s).
	Duration time.Duration
	// Rounds is how many quiescent+churn leg pairs to interleave
	// (default 3).
	Rounds int
	// Rate is the mutation replay rate during churn legs, in mutations
	// per second (default 4000, so the default shape applies >= 10k
	// mutations over three churn legs).
	Rate int
	// RingSize bounds the ingestion bridge's buffer (default 1024).
	RingSize int
	// MaxBatch caps mutations per synchronized apply (default 256).
	MaxBatch int
	// Seed drives all randomness.
	Seed int64
	// Metrics, when non-nil, receives the registry's instruments; the
	// result carries a final snapshot.
	Metrics *metrics.Registry
}

func (c IngestLoadConfig) withDefaults() IngestLoadConfig {
	if c.Dims <= 0 {
		c.Dims = 3
	}
	if c.Rows <= 0 {
		c.Rows = 6000
	}
	if c.SampleSize <= 0 {
		c.SampleSize = 1024
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
	if c.Rate <= 0 {
		c.Rate = 4000
	}
	if c.RingSize <= 0 {
		c.RingSize = 1024
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.Metrics == nil {
		c.Metrics = metrics.New()
	}
	return c
}

// IngestLoadResult aggregates the continuous-ingestion run.
type IngestLoadResult struct {
	Config IngestLoadConfig
	// Served counts completed estimates; DuringN those whose lifetime
	// overlapped a churn leg.
	Served  int
	DuringN int
	// QuiescentP99/DuringP99 pool each phase's estimate tail latency
	// across all legs (display figures).
	QuiescentP99 time.Duration
	DuringP99    time.Duration
	// RoundRatios holds one paired ratio per round (churn-leg estimate
	// p99 over the adjacent quiescent leg's); Ratio is their median — the
	// acceptance figure (<= 2 wanted).
	RoundRatios []float64
	Ratio       float64
	// Produced counts mutations recorded into the change feed; Applied
	// those the bridge delivered to the model (all of them, once the ring
	// drained). Batches is the synchronized apply count, so
	// RepublishSaved = Applied - Batches snapshot publishes were elided
	// by batching. Blocked counts producer parks on a full ring.
	Produced       int
	Applied        int64
	Batches        int64
	RepublishSaved int64
	Blocked        int64
	// DriftTriggers counts drift-detector firings; DriftAnalyzes the
	// background ANALYZEs they scheduled.
	DriftTriggers int64
	DriftAnalyzes int64
	// Cursor is the model's final ingest cursor; it must equal Produced
	// (nothing lost, nothing double-applied).
	Cursor  uint64
	Metrics *metrics.Snapshot
}

// IngestLoad runs the continuous-ingestion experiment.
func IngestLoad(cfg IngestLoadConfig) (*IngestLoadResult, error) {
	cfg = cfg.withDefaults()

	ev, err := workload.NewEvolving(workload.EvolvingConfig{
		Dims:             cfg.Dims,
		InitialTuples:    cfg.Rows,
		TuplesPerCluster: cfg.Rows / 4,
		Cycles:           12,
		QueriesPerCycle:  40,
	}, cfg.Seed+307)
	if err != nil {
		return nil, err
	}
	tab, err := table.New(cfg.Dims)
	if err != nil {
		return nil, err
	}
	if err := tab.InsertMany(ev.Initial); err != nil {
		return nil, err
	}
	// The estimate stream is the workload's own recency-biased queries.
	var stream []query.Range
	for _, op := range ev.Ops {
		if op.Kind == workload.OpQuery {
			stream = append(stream, op.Query)
		}
	}
	if len(stream) == 0 {
		return nil, fmt.Errorf("ingest: evolving workload produced no queries")
	}

	reg := registry.New(registry.Config{Metrics: cfg.Metrics, SweepEvery: -1})
	defer reg.Close()
	cols := make([]int, cfg.Dims)
	for j := range cols {
		cols[j] = j
	}
	key := registry.NewKey("evolving", cols...)
	bcfg := core.Config{Mode: core.Adaptive, SampleSize: cfg.SampleSize, Seed: cfg.Seed}
	if cfg.Shards > 1 {
		err = reg.AdmitSharded(key, tab, bcfg, cfg.Shards, core.ServeConfig{})
	} else {
		err = reg.Admit(key, tab, bcfg, core.ServeConfig{})
	}
	if err != nil {
		return nil, err
	}
	err = reg.AttachIngest(key, registry.IngestOptions{
		RingSize: cfg.RingSize,
		MaxBatch: cfg.MaxBatch,
		Drift:    ingest.DriftConfig{Window: 128, Threshold: 0.75},
	})
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	crngs := clientRands(cfg.Clients, cfg.Seed+9000)
	estimate := func(c, _ int) (int, error) {
		_, err := reg.EstimateContext(ctx, key, stream[crngs[c].Intn(len(stream))])
		return 0, err
	}

	// The mutation replay walks ev.Ops at cfg.Rate during churn legs,
	// keeping its position across legs (wrapping at the end). OpQuery
	// entries are skipped during the timed legs — feedback training and
	// drift-triggered ANALYZEs are the tuning loop, priced by the shard
	// and registry experiments; the bar here prices ingestion itself.
	// They run in the untimed drift phase after the timed rounds instead.
	// No feedback has been delivered yet, so a drift trigger during a
	// timed leg counts but schedules nothing (the recent-feedback gate).
	gap := time.Second / time.Duration(cfg.Rate)
	opPos := 0
	produced := 0
	mutateOne := func() (bool, error) {
		op := ev.Ops[opPos%len(ev.Ops)]
		opPos++
		switch op.Kind {
		case workload.OpInsert:
			if err := tab.Insert(op.Row); err != nil {
				return false, err
			}
			produced++
			return true, nil
		case workload.OpDeleteRegion:
			n, err := tab.DeleteWhere(op.Region)
			if err != nil {
				return false, err
			}
			produced += n
			return n > 0, nil
		default:
			return false, nil
		}
	}
	replay := func(until time.Time) error {
		next := time.Now()
		for time.Now().Before(until) {
			mutated, err := mutateOne()
			if err != nil {
				return err
			}
			if !mutated {
				continue // skipped ops don't count against the pace
			}
			next = next.Add(gap)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
		return nil
	}

	// drain waits out the ring so a churn leg's buffered tail cannot bleed
	// into the next quiescent leg (and, after the last round, so Applied
	// and the cursor account for every produced mutation).
	drain := func() error {
		until := time.Now().Add(30 * time.Second)
		for {
			st, ok := reg.IngestStats(key)
			if !ok {
				return fmt.Errorf("ingest: bridge detached mid-run")
			}
			if st.Depth == 0 {
				return nil
			}
			if time.Now().After(until) {
				return fmt.Errorf("ingest: ring never drained (depth %d)", st.Depth)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Interleaved paired legs with one untimed warm-up round (cold-process
	// ramp: heap growth, first-touch faults, the adaptive model's first
	// feedback steps).
	var quiesIv, churnIv []interval
	samples, err := runClients(cfg.Clients, 0, estimate, func() error {
		for r := -1; r < cfg.Rounds; r++ {
			qs := time.Now()
			time.Sleep(cfg.Duration)
			cs := time.Now()
			if err := replay(cs.Add(cfg.Duration)); err != nil {
				return err
			}
			if err := drain(); err != nil {
				return err
			}
			ce := time.Now()
			if r >= 0 {
				quiesIv = append(quiesIv, interval{qs, cs})
				churnIv = append(churnIv, interval{cs, ce})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Untimed drift phase: deliver the recent-feedback observations the
	// ANALYZE gate requires, then keep replaying the evolving stream until
	// a drift trigger schedules a background ANALYZE (the §6.5 loop). This
	// runs after the latency measurement on purpose — ANALYZE is the
	// tuning loop's cost, not ingestion's.
	frng := rand.New(rand.NewSource(cfg.Seed + 311))
	for i := 0; i < 8; i++ {
		q := stream[frng.Intn(len(stream))]
		actual, err := tab.Selectivity(q)
		if err != nil {
			return nil, err
		}
		if err := reg.Feedback(key, q, actual); err != nil {
			return nil, err
		}
	}
	driftUntil := time.Now().Add(15 * time.Second)
	for i := 0; cfg.Metrics.Counter("registry.drift_analyzes").Value() == 0 && i < 60000; i++ {
		if _, err := mutateOne(); err != nil {
			return nil, err
		}
		if time.Now().After(driftUntil) {
			break
		}
	}
	if err := drain(); err != nil {
		return nil, err
	}

	st, _ := reg.IngestStats(key)
	res := &IngestLoadResult{
		Config:         cfg,
		Produced:       produced,
		Applied:        st.Applied,
		Batches:        st.Batches,
		RepublishSaved: st.Applied - st.Batches,
		Blocked:        st.Blocked,
		DriftTriggers:  st.DriftTriggers,
		DriftAnalyzes:  cfg.Metrics.Counter("registry.drift_analyzes").Value(),
		Cursor:         st.Cursor,
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

// WriteTable renders the ingest volume, the two-phase tail latencies, and
// the bounded-lag serving verdict.
func (r *IngestLoadResult) WriteTable(w io.Writer) {
	shape := "unsharded"
	if r.Config.Shards > 1 {
		shape = fmt.Sprintf("K=%d sharded", r.Config.Shards)
	}
	fmt.Fprintf(w, "continuous ingestion: %s model, %d clients, %d rounds, %d mut/s replay\n",
		shape, r.Config.Clients, r.Config.Rounds, r.Config.Rate)
	fmt.Fprintf(w, "feed: %d produced, %d applied in %d batches (%d republishes saved), %d producer parks, cursor %d\n",
		r.Produced, r.Applied, r.Batches, r.RepublishSaved, r.Blocked, r.Cursor)
	fmt.Fprintf(w, "drift: %d triggers, %d scheduled ANALYZEs\n", r.DriftTriggers, r.DriftAnalyzes)
	fmt.Fprintf(w, "%-10s  %8s  %7s  %14s  %14s\n",
		"phase", "served", "during", "quiescent p99", "during p99")
	fmt.Fprintf(w, "%-10s  %8d  %7d  %14s  %14s\n",
		"estimate", r.Served, r.DuringN, r.QuiescentP99, r.DuringP99)
	fmt.Fprintf(w, "round ratios (ingest p99 / adjacent quiescent p99):")
	for _, rr := range r.RoundRatios {
		fmt.Fprintf(w, " %.2f", rr)
	}
	if len(r.RoundRatios) == 0 {
		fmt.Fprintf(w, " - (too few samples)")
	}
	fmt.Fprintln(w)
	verdict := "PASS"
	if r.Ratio > 2 {
		verdict = "FAIL"
	}
	applied := "PASS"
	if r.Cursor != uint64(r.Produced) || r.Applied != int64(r.Produced) {
		applied = "FAIL"
	}
	fmt.Fprintf(w, "exactly-once: cursor == produced == applied: %s\n", applied)
	fmt.Fprintf(w, "bounded lag: median during/quiescent estimate p99 ratio = %.2f (≤ 2 wanted): %s\n",
		r.Ratio, verdict)
}
