package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kdesel/internal/mathx"
	"kdesel/internal/metrics"
	"kdesel/internal/query"
	"kdesel/internal/serve"
	"kdesel/internal/table"
)

// EstimateBatch estimates the selectivity of every query in qs, writing one
// result per query into ests (len(ests) must equal len(qs)). It is the
// batched counterpart of Estimate with identical hardening: all queries are
// validated up front (an invalid query fails the whole batch before any
// evaluation), transient device failures retry and degrade to the host
// path, and every returned value is a finite selectivity in [0, 1].
//
// On the host path the batch is evaluated by kde.SelectivityBatch, which
// streams each sample chunk once per query tile — this is the amortization
// the serve-layer coalescer exists to exploit. Results are bit-identical to
// per-query Estimate calls. EstimateBatch does not update the contribution
// cache consumed by Feedback; a subsequent Feedback re-estimates its query
// internally, so adaptive serving through the batch path stays correct.
func (e *Estimator) EstimateBatch(qs []query.Range, ests []float64) error {
	if len(ests) != len(qs) {
		return fmt.Errorf("core: EstimateBatch got %d queries but %d result slots", len(qs), len(ests))
	}
	for _, q := range qs {
		if err := ValidateQuery(e.d, q); err != nil {
			e.met.invalidQueries.Inc()
			return err
		}
	}
	if len(qs) == 0 {
		return nil
	}
	if e.met.estimateSec != nil {
		start := time.Now()
		defer func() { e.met.estimateSec.ObserveDuration(time.Since(start)) }()
	}
	if err := e.estimateBatchRaw(qs, ests); err != nil {
		return err
	}
	// Count only after the whole batch produced estimates, so an errored
	// batch never inflates Queries() — same contract as single Estimate.
	e.queries.Add(int64(len(qs)))
	for i, q := range qs {
		ests[i] = e.sanitizeEstimate(q, ests[i])
	}
	return nil
}

// estimateBatchRaw runs the batch on the active execution path. The device
// evaluates the whole batch with one bounds-tile transfer and one launch
// (gpu.Engine.EstimateBatch) instead of paying a PCIe round-trip per query;
// a mid-batch fallback redoes the whole batch on the host so one degradation
// event cannot split a batch across paths.
func (e *Estimator) estimateBatchRaw(qs []query.Range, ests []float64) error {
	if e.eng != nil {
		if err := e.deviceOp("batch estimate", func() error {
			return e.eng.EstimateBatch(qs, ests)
		}); err != nil {
			return err
		}
		if e.eng != nil {
			e.met.deviceBatchQueries.Add(int64(len(qs)))
			return nil
		}
		// Fell back mid-batch: host redo below.
	}
	return e.host.SelectivityBatch(qs, ests)
}

// ServeConfig tunes a Server's request coalescing; the zero value enables
// it with the serve-package default batch cap (serve.DefaultMaxBatch). The
// coalescer is work-conserving: it never waits for batch-mates, so a lone
// request is evaluated at once as a batch of one, and a batch is whatever
// queued while the previous one was evaluated.
type ServeConfig struct {
	// MaxBatch caps how many concurrent Estimate calls share one fused
	// traversal (default serve.DefaultMaxBatch). MaxBatch ≤ 1 (but non-zero)
	// disables coalescing entirely: Estimate takes the direct mutex path
	// and no scheduler goroutine is started.
	MaxBatch int
	// Queue is the pending-request capacity (default 4·MaxBatch).
	Queue int
	// Metrics, when non-nil, receives the serve.* gauges and histograms in
	// addition to whatever registry the estimator itself is instrumented
	// with (the two are usually the same registry).
	Metrics *metrics.Registry
	// MetricPrefix namespaces the serve.* instruments on a shared registry
	// (see serve.Config.MetricPrefix). Servers sharing one registry must use
	// distinct prefixes or their queue-depth gauges collide; the model
	// registry derives one per model key automatically.
	MetricPrefix string
	// ProfileLabel tags the scheduler goroutine with pprof label
	// kdesel_serve=batcher for CPU-profile attribution.
	ProfileLabel bool
	// SerializeEstimates disables snapshot-isolated serving: every Estimate
	// takes the writer mutex, so estimates and writer operations (Feedback,
	// ANALYZE, Checkpoint) strictly serialize — the pre-snapshot behavior.
	// Useful as a baseline for measuring what the snapshot path buys, and
	// irrelevant for device-placed models (which always serialize, see
	// snapshot.go).
	SerializeEstimates bool
	// Precision selects the numeric tier estimates are served from
	// (default mathx.Float64, the exact pre-tier path). Float32 builds a
	// compressed columnar mirror of the sample that is verified against an
	// error contract before it is ever served (precision.go): a tier over
	// contract falls back to float64 and increments
	// core.precision_fallbacks. The precision is pinned into
	// each published snapshot — it changes only at snapshot swaps, never
	// mid-estimate. Feedback, gradients, and bandwidth learning always run
	// float64 regardless of this setting.
	Precision mathx.Precision
}

// Server wraps an Estimator for concurrent use with a single-writer /
// lock-free-reader split. The underlying estimator is single-threaded by
// design (learning and maintenance mutate the model); Server routes all
// mutation — Feedback, ANALYZE (Reoptimize), Checkpoint — through one writer
// mutex, while Estimate and coalesced batches serve from the immutable model
// snapshot the writer publishes (snapshot.go). A multi-second bandwidth
// re-optimization therefore never blocks the estimate path; readers see the
// pre-ANALYZE model until the writer publishes the new one.
//
// When coalescing is enabled, concurrent Estimate calls additionally share
// one fused traversal of up to MaxBatch queries through a serve.Batcher.
// Device-placed models and SerializeEstimates configurations fall back to
// serializing estimates behind the writer mutex.
//
// Methods on Server are safe for concurrent use. The zero Server is not
// usable; construct with NewServer.
type Server struct {
	mu  sync.Mutex // writer lock: model mutation + serialized estimates
	est *Estimator
	// b is the coalescer, atomic because Close (and an Estimate discovering
	// a closed batcher) detaches it while lock-free estimates race the load:
	// Estimate must never take the writer mutex just to read the pointer.
	b         atomic.Pointer[serve.Batcher]
	serialize bool
}

// NewServer wraps est for concurrent serving. The caller must stop using
// est directly — all access, including Feedback and Checkpoint, must go
// through the returned Server or races ensue.
func NewServer(est *Estimator, cfg ServeConfig) *Server {
	s := &Server{est: est, serialize: cfg.SerializeEstimates}
	// Configure the serving tier before the first publish. For serialize
	// mode this is also the only application point: no snapshots are ever
	// published, so the tier must be built (and verified) here for the
	// locked estimate path to serve it.
	est.configurePrecision(cfg.Precision)
	if !s.serialize {
		est.enableSnapshots()
	}
	s.b.Store(serve.New(func(qs []query.Range, ests []float64) error {
		if !s.serialize && est.estimateBatchSnapshot(qs, ests) {
			return nil
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		return est.EstimateBatch(qs, ests)
	}, serve.Config{
		MaxBatch:     cfg.MaxBatch,
		Queue:        cfg.Queue,
		Metrics:      cfg.Metrics,
		MetricPrefix: cfg.MetricPrefix,
		ProfileLabel: cfg.ProfileLabel,
	}))
	// Take over the estimator's change-feed subscription: the estimator's
	// own listener path is single-writer by design, and once a Server exists
	// concurrent Feedback would race it. The Server's callbacks apply under
	// the writer lock, so table mutations are synchronized with every other
	// model mutation by construction.
	if est.tab != nil {
		est.tab.Unsubscribe(est)
		est.tab.Subscribe(s)
	}
	return s
}

// OnInsert implements table.Listener under the writer lock.
func (s *Server) OnInsert(row []float64) {
	_ = s.ApplyMutations([]table.Mutation{{Kind: table.MutInsert, Row: row}})
}

// OnDelete implements table.Listener under the writer lock.
func (s *Server) OnDelete(row []float64) {
	_ = s.ApplyMutations([]table.Mutation{{Kind: table.MutDelete, Row: row}})
}

// OnUpdate implements table.Listener under the writer lock.
func (s *Server) OnUpdate(oldRow, newRow []float64) {
	_ = s.ApplyMutations([]table.Mutation{{Kind: table.MutUpdate, Row: newRow, Pre: oldRow}})
}

// Coalescing reports whether concurrent estimates are batched (false when
// the config disabled it with MaxBatch ≤ 1, or after Close).
func (s *Server) Coalescing() bool { return s.b.Load() != nil }

// Estimate returns the estimated selectivity of q, sharing a fused
// traversal with concurrent callers when coalescing is enabled and serving
// lock-free from the published model snapshot when possible. After Close it
// keeps serving through the snapshot (or writer-mutex) path — only the
// coalescer is gone, not the model.
//
// Validation happens before enqueueing, lock-free: ValidateQuery reads only
// the immutable dimensionality, so malformed queries are rejected at memory
// speed without occupying a batch slot or waking the scheduler.
func (s *Server) Estimate(q query.Range) (float64, error) {
	return s.EstimateContext(context.Background(), q)
}

// EstimateContext is Estimate with deadline/cancellation propagation, the
// entry point for networked serving: an expired context unblocks the caller
// immediately — including while the request is parked in the coalescer's
// queue, where the abandoned slot is reclaimed without riding a batch (see
// serve.Batcher.EstimateContext) — and a request that would otherwise wait
// on the writer mutex behind a long ANALYZE gives up instead. A context that
// expires after evaluation returns the computed (and counted) estimate, so
// Queries() accounting matches delivered results exactly.
func (s *Server) EstimateContext(ctx context.Context, q query.Range) (float64, error) {
	if err := ValidateQuery(s.est.d, q); err != nil {
		s.est.met.invalidQueries.Inc()
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if b := s.b.Load(); b != nil {
		est, err := b.EstimateContext(ctx, q)
		if err == nil || !errors.Is(err, serve.ErrClosed) {
			return est, err
		}
		// The batcher was closed (Server.Close, possibly racing this call).
		// Close's documented contract is that the model remains servable, so
		// detach the dead batcher and fall through to the direct path rather
		// than reporting "batcher closed" forever.
		s.b.CompareAndSwap(b, nil)
	}
	if !s.serialize {
		if est, ok := s.est.estimateSnapshot(q); ok {
			return est, nil
		}
	}
	// The writer mutex can be held for seconds by ANALYZE; poll the context
	// while contending so a deadline-bound caller is never parked on it.
	if err := acquireCtx(ctx, &s.mu); err != nil {
		return 0, err
	}
	defer s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.est.Estimate(q)
}

// EstimateDetail is EstimateContext in the shape the model registry serves
// every model through. An unsharded model never serves a degraded partial
// estimate, so the flag is always false.
func (s *Server) EstimateDetail(ctx context.Context, q query.Range) (float64, bool, error) {
	est, err := s.EstimateContext(ctx, q)
	return est, false, err
}

// acquireCtx locks mu unless ctx expires first. sync.Mutex has no native
// cancellable acquire; a TryLock spin with a short parked wait approximates
// one without spawning a goroutine per contended request.
func acquireCtx(ctx context.Context, mu *sync.Mutex) error {
	if mu.TryLock() {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		mu.Lock()
		return nil
	}
	const park = 100 * time.Microsecond
	for {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		if mu.TryLock() {
			return nil
		}
		timer := time.NewTimer(park)
		select {
		case <-done:
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
	}
}

// Feedback delivers observed true selectivity; see Estimator.Feedback.
func (s *Server) Feedback(q query.Range, actual float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est.Feedback(q, actual)
}

// Reoptimize re-runs the batch bandwidth optimization over fresh feedback —
// the ANALYZE step — under the writer lock. Concurrent estimates keep
// serving the pre-ANALYZE snapshot throughout; the re-optimized model
// becomes visible when the writer publishes it at completion.
func (s *Server) Reoptimize(fbs []query.Feedback) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est.Reoptimize(fbs)
}

// Checkpoint atomically persists the model; see Estimator.Checkpoint.
func (s *Server) Checkpoint(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est.Checkpoint(path)
}

// ApplyMutations applies a batch of change-feed events under the writer
// lock with one snapshot republish — the entry point the ingestion bridge
// (internal/ingest) drives. Concurrent estimates keep serving the published
// snapshot throughout; see Estimator.ApplyMutations.
func (s *Server) ApplyMutations(ms []table.Mutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est.ApplyMutations(ms)
}

// IngestCursor returns the highest change-feed sequence number applied so
// far; see Estimator.IngestCursor.
func (s *Server) IngestCursor() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est.IngestCursor()
}

// DetachFeed removes the server's (and, defensively, the estimator's)
// table subscription. The ingestion bridge path calls this before
// subscribing its own listener, so a served model's change feed flows
// exclusively through ApplyMutations; the registry calls it on eviction so
// a torn-down server stops receiving callbacks. Deliberately lock-free:
// Table.Unsubscribe waits out in-flight callbacks, which take s.mu —
// holding it here would deadlock. Unsubscribe itself is the barrier: once
// DetachFeed returns, no further callbacks run.
func (s *Server) DetachFeed() {
	if t := s.est.tab; t != nil {
		t.Unsubscribe(s)
		t.Unsubscribe(s.est)
	}
}

// SetErfMode switches the process-global erf implementation (see
// internal/mathx) and republishes the snapshot so lock-free readers pick up
// the pinned new mode; in-flight estimates finish under the mode they
// started with.
func (s *Server) SetErfMode(m mathx.Mode) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mathx.SetMode(m)
	s.est.publishSnapshot()
}

// SetPrecision reconfigures the serving precision and republishes the
// snapshot so lock-free readers pick up the new tier; in-flight estimates
// finish on the tier pinned into the snapshot they started with. The tier
// passes the verify gate before publication (see ServeConfig.Precision);
// on refusal the server keeps serving float64.
func (s *Server) SetPrecision(p mathx.Precision) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.est.configurePrecision(p)
	s.est.publishSnapshot()
}

// ConfiguredPrecision returns the requested serving precision.
func (s *Server) ConfiguredPrecision() mathx.Precision {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est.ConfiguredPrecision()
}

// ActivePrecision returns the tier estimates are actually served from —
// Float64 when the verify gate refused the configured tier or the model is
// device-placed.
func (s *Server) ActivePrecision() mathx.Precision {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est.ActivePrecision()
}

// Health returns the estimator's degradation state. Lock-free: the state is
// atomic, so readiness probes never block behind a long ANALYZE holding the
// writer mutex.
func (s *Server) Health() Health { return s.est.Health() }

// Queries returns the number of estimates served. Lock-free: the counter is
// atomic because snapshot-path estimates bump it without the writer lock.
func (s *Server) Queries() int { return s.est.Queries() }

// Close drains in-flight coalesced requests, stops the scheduler goroutine,
// and unregisters the coalescer's queue-depth gauge. The Server itself
// remains fully usable: Estimate falls back to the snapshot (or writer-
// mutex) path, and Feedback/Reoptimize/Checkpoint are unaffected — Close
// only retires the coalescer, e.g. before process shutdown or when the
// model registry evicts a model. The wrapped estimator likewise remains
// valid for direct single-threaded use after Close returns.
func (s *Server) Close() {
	if b := s.b.Load(); b != nil {
		b.Close()
		s.b.CompareAndSwap(b, nil)
	}
}
