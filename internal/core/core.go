// Package core implements the paper's primary contribution: a self-tuning,
// optionally GPU-accelerated KDE-based selectivity estimator. It composes
// the substrate packages into the full estimator lifecycle:
//
//   - construction from a table sample with Scott's-rule initialization
//     (§3.4 step 2, §5.2);
//   - one-shot bandwidth optimization over training feedback — the "Batch"
//     estimator of §3 — or sample-driven cross-validation — the "SCV"
//     baseline;
//   - continuous adaptive bandwidth maintenance via mini-batch RMSprop over
//     query feedback, with optional logarithmic updates (§4.1, Appendix D);
//   - karma-based sample maintenance plus reservoir sampling for inserts
//     (§4.2, §5.6);
//   - offload of all per-query computation to a simulated device (§5).
//
// The intended protocol per query mirrors Listing 1: call Estimate, let the
// database run the query, then call Feedback with the true selectivity.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"kdesel/internal/bandwidth"
	"kdesel/internal/fault"
	"kdesel/internal/gpu"
	"kdesel/internal/kde"
	"kdesel/internal/kernel"
	"kdesel/internal/learner"
	"kdesel/internal/loss"
	"kdesel/internal/mathx"
	"kdesel/internal/metrics"
	"kdesel/internal/parallel"
	"kdesel/internal/query"
	"kdesel/internal/sample"
	"kdesel/internal/table"
)

// Mode selects how the estimator picks and maintains its bandwidth,
// matching the compared estimators of §6.1.1.
type Mode int

const (
	// Heuristic keeps the Scott's-rule bandwidth (the naïve baseline).
	Heuristic Mode = iota
	// SCV picks the bandwidth by smoothed cross-validation on the sample.
	SCV
	// Batch optimizes the bandwidth once over training feedback (§3).
	Batch
	// Adaptive starts from Scott's rule and continuously adjusts the
	// bandwidth from query feedback, with karma sample maintenance (§4).
	Adaptive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Heuristic:
		return "heuristic"
	case SCV:
		return "scv"
	case Batch:
		return "batch"
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config assembles an estimator. The zero value is a usable Heuristic
// configuration with paper defaults.
type Config struct {
	// Mode selects the bandwidth strategy.
	Mode Mode
	// SampleSize is the number of sample points s (default 1024). The
	// actual sample is capped at the table size.
	SampleSize int
	// Kernel defaults to the Gaussian.
	Kernel kernel.Kernel
	// Loss is the error metric optimized by Batch and Adaptive and used by
	// the karma maintenance (default quadratic, the paper's L2 default).
	Loss loss.Function
	// Device, when non-nil, hosts the sample and runs all per-query
	// computation through the accounted engine of internal/gpu.
	Device *gpu.Device
	// Training is the feedback set the Batch mode optimizes over.
	Training []query.Feedback
	// Learner tunes the adaptive RMSprop updates (Listing 1 defaults).
	Learner learner.Config
	// Karma tunes the sample maintenance (defaults per §4.2).
	Karma sample.KarmaConfig
	// DisableMaintenance turns off reservoir+karma sample maintenance
	// (maintenance is active only in Adaptive mode to begin with).
	DisableMaintenance bool
	// BatchOptions tunes the Batch optimizer.
	BatchOptions bandwidth.OptimalConfig
	// Seed drives all randomness (sampling, optimizer restarts).
	Seed int64
	// Workers sets the host execution parallelism of all KDE math —
	// estimates, gradients, and batch bandwidth optimization: 0 or 1 run
	// serially (the default spawns no goroutines), n > 1 uses n workers,
	// and any negative value uses runtime.NumCPU(). Every setting produces
	// bit-identical results (see internal/parallel), so the knob trades
	// goroutines for latency only. It is ignored on the device path, where
	// the simulated engine models its own parallelism.
	Workers int
	// Metrics, when non-nil, receives estimator telemetry: Estimate and
	// Feedback latency, mini-batch updates applied, karma replacements,
	// reservoir accept rate, per-dimension bandwidth drift, learner and
	// optimizer activity, and (on the device path) device accounting. A nil
	// registry disables all instrumentation: hot paths stay allocation-free
	// and every computed result is bit-identical either way. Metrics is not
	// part of the persisted model state (see persist.go); call
	// Estimator.Instrument after Load to re-attach a registry.
	Metrics *metrics.Registry
	// Faults, when non-nil, drives deterministic fault injection through
	// the estimator's own failure points (optimizer divergence, non-finite
	// feedback gradients). Device-level faults are configured on the
	// Device itself (gpu.Device.SetFaultInjector). Production deployments
	// leave this nil; a nil injector is a complete no-op.
	Faults *fault.Injector
	// RetryBaseDelay is the initial backoff before retrying a transient
	// device error; successive attempts double it up to a 100ms cap. Zero
	// selects the 1ms default; a negative value disables sleeping between
	// attempts entirely (used by tests and chaos runs).
	RetryBaseDelay time.Duration
}

func (c Config) sampleSize() int {
	if c.SampleSize > 0 {
		return c.SampleSize
	}
	return 1024
}

func (c Config) kernel() kernel.Kernel {
	if c.Kernel != nil {
		return c.Kernel
	}
	return kernel.Gaussian{}
}

func (c Config) loss() loss.Function {
	if c.Loss != nil {
		return c.Loss
	}
	return loss.Quadratic{}
}

// Estimator is a self-tuning KDE selectivity estimator bound to a table.
// It retains per-query state between Estimate and Feedback, matching the
// single query-optimizer thread it serves; it is not safe for concurrent
// use.
type Estimator struct {
	cfg  Config
	tab  *table.Table
	d    int
	s    int
	kern kernel.Kernel
	// src is maint.Src, the counted source behind maint.Rng, kept as a
	// field because the checkpoint round-trip test compares its draws.
	src *sample.CountingSource

	// Exactly one of host/eng is active: eng when a device is configured.
	// hostMirror shadows the device-resident sample row-major on the host
	// so the degradation ladder can rebuild the model without asking the
	// (possibly failing) device; it is nil on the host path.
	host       *kde.Estimator
	eng        *gpu.Engine
	hostMirror []float64

	// Degradation state (see health.go); fbPanics counts the panics
	// recovered out of the feedback path.
	Ladder
	fbPanics int

	// The learning step (tune.go). It carries the loss lf, the
	// estimator-level fault injector faults, and the learner learn (nil
	// unless Adaptive).
	tuner
	// maint carries the random stream, the karma scores, the reservoir and
	// the change-feed cursor; Karma and Res are nil unless the model
	// maintains its sample.
	maint sample.Maintainer
	met   coreMetrics

	// Host-path feedback cache (the engine retains its own buffers).
	lastQ       query.Range
	lastEst     float64
	lastContrib []float64
	hasEst      bool

	// queries is atomic because the snapshot read path (snapshot.go) counts
	// served estimates without holding the writer lock.
	queries      atomic.Int64
	replacements int

	// Snapshot-isolated serving state (snapshot.go): snap holds the current
	// immutable read view, snapOn gates publishing (enabled by core.Server).
	snap   atomic.Pointer[modelSnapshot]
	snapOn atomic.Bool

	// Serving-precision state (precision.go): precWant is the configured
	// tier; precVerified/precGen track the last verify-gate pass and the
	// sample generation it ran at; precDisabled parks a request the gate
	// refused until invalidatePrecision.
	precWant     mathx.Precision
	precVerified bool
	precDisabled bool
	precGen      uint64
}

// Build constructs an estimator over tab — the ANALYZE step. For Batch
// mode, cfg.Training must hold the training feedback.
func Build(tab *table.Table, cfg Config) (*Estimator, error) {
	if tab == nil {
		return nil, errors.New("core: nil table")
	}
	if tab.Len() == 0 {
		return nil, errors.New("core: cannot build an estimator over an empty table")
	}
	if cfg.Mode == Batch && len(cfg.Training) == 0 {
		return nil, errors.New("core: batch mode requires training feedback")
	}
	e := newEstimator(tab, cfg)
	d := e.d
	flat, err := e.maint.Draw(tab, cfg.sampleSize(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	e.s, e.src = len(flat)/d, e.maint.Src

	// Initial bandwidth per mode. Build-time degradations are counted
	// after Instrument resolves the metric instruments below.
	var h []float64
	buildResets := 0
	buildFallbacks := 0
	switch cfg.Mode {
	case Heuristic, Adaptive:
		h = kde.ScottBandwidth(flat, d)
	case SCV:
		// Cross-validation runs on the host exactly like the paper's use
		// of the external R selector.
		h, err = bandwidth.SCV(flat, d, bandwidth.CVConfig{Rand: e.maint.Rng})
		if err != nil {
			return nil, fmt.Errorf("core: scv bandwidth selection: %w", err)
		}
	case Batch:
		if e.faults.Fire(fault.OptimizerDiverge) {
			err = fmt.Errorf("%w: optimizer divergence", fault.ErrInjected)
		} else {
			h, err = bandwidth.Optimal(flat, d, cfg.Training, e.batchOptions(cfg.Metrics))
		}
		if err != nil {
			if !errors.Is(err, fault.ErrInjected) {
				return nil, fmt.Errorf("core: batch bandwidth optimization: %w", err)
			}
			// A diverged optimizer must not fail ANALYZE: degrade to the
			// Scott's-rule starting point and flag the model.
			h = kde.ScottBandwidth(flat, d)
			e.Degrade(Degraded, "batch optimizer diverged; using Scott's rule")
			buildResets++
		}
	default:
		return nil, fmt.Errorf("core: unknown mode %d", int(cfg.Mode))
	}

	// A device that fails transiently while being populated degrades the
	// model to the host path rather than failing ANALYZE.
	err = e.place(flat, h, cfg.Device)
	if errors.Is(err, fault.ErrInjected) {
		e.Degrade(Degraded, "device unavailable at build; placed model on host")
		buildFallbacks++
		err = e.place(flat, h, nil)
	}
	if err != nil {
		return nil, err
	}
	if err := e.adapt(!cfg.DisableMaintenance, nil); err != nil {
		return nil, err
	}
	e.Instrument(cfg.Metrics)
	if e.Health() != Healthy {
		e.Ladder.events.Inc()
		e.tuner.met.resets.Add(int64(buildResets))
		e.met.gpuFallbacks.Add(int64(buildFallbacks))
	}
	return e, nil
}

// newEstimator returns the unplaced estimator of cfg over tab. Its learning
// step is bound to its ladder, its device-free sample copy and its
// bandwidth hook (health.go).
func newEstimator(tab *table.Table, cfg Config) *Estimator {
	e := &Estimator{cfg: cfg, tab: tab, d: tab.Dims(), kern: cfg.kernel()}
	e.tuner = tuner{d: e.d, lf: cfg.loss(), faults: cfg.Faults, ladder: &e.Ladder,
		sample: e.sampleHostLocal, install: e.installBandwidth}
	return e
}

// place puts the model, sample flat with bandwidth h, on dev through the
// retry policy of health.go, or on the host when dev is nil.
func (e *Estimator) place(flat, h []float64, dev *gpu.Device) error {
	if dev != nil {
		return e.retryDevice(func() error {
			eng, err := gpu.NewEngine(dev, e.d, e.kern, flat)
			if err == nil {
				err = eng.SetBandwidth(h)
			}
			if err == nil {
				e.eng, e.hostMirror = eng, append([]float64(nil), flat...)
			}
			return err
		})
	}
	host, err := kde.New(e.d, e.kern)
	if err != nil {
		return err
	}
	host.SetWorkers(e.cfg.Workers)
	if err := host.SetSampleFlat(flat); err != nil {
		return err
	}
	if err := host.SetBandwidth(h); err != nil {
		return err
	}
	e.host = host
	return nil
}

// adapt gives an Adaptive model its learner and, when maintained is set,
// its karma and reservoir maintenance (sample.Maintainer.Track, with st
// from a checkpoint or nil). Other modes neither learn nor maintain.
func (e *Estimator) adapt(maintained bool, st *sample.State) error {
	if e.cfg.Mode != Adaptive {
		return nil
	}
	var err error
	if e.learn, err = learner.NewRMSprop(e.d, e.cfg.Learner); err != nil {
		return err
	}
	if maintained {
		return e.maint.Track(e.tab, e, e.s, e.cfg.Karma, e.lf, st)
	}
	return nil
}

// batchOptions fills the Batch optimizer's unset options from the
// estimator: its kernel, loss, random stream and worker count, and reg.
func (e *Estimator) batchOptions(reg *metrics.Registry) bandwidth.OptimalConfig {
	opts := e.cfg.BatchOptions
	if opts.Kernel == nil {
		opts.Kernel = e.kern
	}
	if opts.Loss == nil {
		opts.Loss = e.lf
	}
	if opts.Rand == nil {
		opts.Rand = e.maint.Rng
	}
	if opts.Workers == 0 {
		opts.Workers = e.cfg.Workers
	}
	if opts.Metrics == nil {
		opts.Metrics = reg
	}
	return opts
}

// coreMetrics holds the estimator's resolved instruments. All fields are
// nil when no registry is attached, which makes every record call a cheap
// no-op (see internal/metrics).
type coreMetrics struct {
	reg         *metrics.Registry
	estimateSec *metrics.Histogram
	feedbackSec *metrics.Histogram

	// Robustness events (see health.go); the learning step and the ladder
	// count their own (tune.go).
	gpuRetries      *metrics.Counter
	gpuFallbacks    *metrics.Counter
	serialFallbacks *metrics.Counter
	nonfiniteEst    *metrics.Counter
	feedbackPanics  *metrics.Counter
	invalidQueries  *metrics.Counter
	checkpoints     *metrics.Counter

	// Serving-path instruments: queries that reached the device as part of a
	// coalesced batch call, and read-snapshot publications (snapshot.go).
	deviceBatchQueries *metrics.Counter
	snapshotSwaps      *metrics.Counter
	precisionFallbacks *metrics.Counter
}

// Instrument attaches a metrics registry to the estimator and all layers
// beneath it (learner, host worker pool, simulated device). It can be
// called any time — typically right after Build (Config.Metrics does it
// automatically) or after Load, since the registry is not part of the
// persisted model. Passing nil detaches instrumentation. Attaching a
// registry never changes what the estimator computes.
func (e *Estimator) Instrument(reg *metrics.Registry) {
	e.met = coreMetrics{
		reg:         reg,
		estimateSec: reg.Histogram("core.estimate_seconds"),
		feedbackSec: reg.Histogram("core.feedback_seconds"),

		gpuRetries:      reg.Counter("core.gpu_retries"),
		gpuFallbacks:    reg.Counter("core.gpu_fallbacks"),
		serialFallbacks: reg.Counter("core.serial_fallbacks"),
		nonfiniteEst:    reg.Counter("core.nonfinite_estimates"),
		feedbackPanics:  reg.Counter("core.feedback_panics"),
		invalidQueries:  reg.Counter("core.invalid_queries"),
		checkpoints:     reg.Counter("core.checkpoints_written"),

		deviceBatchQueries: reg.Counter("core.device_batch_queries"),
		snapshotSwaps:      reg.Counter("core.snapshot_swaps"),
		precisionFallbacks: reg.Counter("core.precision_fallbacks"),
	}
	e.maint.Instrument(reg)
	e.tuner.instrument(reg)
	if e.host != nil {
		e.host.Pool().Instrument(reg)
	}
	if dev := e.Device(); dev != nil {
		dev.RegisterMetrics(reg)
	}
	if reg == nil {
		return
	}
	// Age of the published read snapshot: how stale a lock-free estimate can
	// be relative to the writer's latest mutation. 0 when snapshot-isolated
	// serving is off (no Server, or SerializeEstimates).
	reg.RegisterGaugeFunc("core.snapshot_age_seconds", func() float64 {
		ms := e.snap.Load()
		if ms == nil {
			return 0
		}
		return time.Since(ms.published).Seconds()
	})
	// Per-dimension bandwidth drift relative to the bandwidth at attach
	// time, as pull-style gauges evaluated only at snapshot time. A scrape
	// runs concurrently with the writer, so a served model reports the
	// bandwidth of its published, immutable snapshot.
	h0 := e.Bandwidth()
	for j := range h0 {
		j, ref := j, h0[j]
		reg.RegisterGaugeFunc(fmt.Sprintf("core.bandwidth_drift.dim%d", j), func() float64 {
			if !(ref > 0) {
				return 0
			}
			if ms := e.snap.Load(); ms != nil {
				return ms.view.Bandwidth()[j] / ref
			}
			return e.Bandwidth()[j] / ref
		})
	}
}

// Mode returns the estimator's mode.
func (e *Estimator) Mode() Mode { return e.cfg.Mode }

// Dims returns the dimensionality.
func (e *Estimator) Dims() int { return e.d }

// SampleSize returns the model size s.
func (e *Estimator) SampleSize() int { return e.s }

// Queries returns the number of estimates actually served: queries that
// errored out (invalid ranges, failed batches) are not counted. Safe to call
// concurrently with snapshot-path estimates.
func (e *Estimator) Queries() int { return int(e.queries.Load()) }

// Replacements returns the number of sample points replaced by maintenance.
func (e *Estimator) Replacements() int { return e.replacements }

// Bandwidth returns a copy of the current bandwidth vector.
func (e *Estimator) Bandwidth() []float64 {
	if e.eng != nil {
		return e.eng.Bandwidth()
	}
	return e.host.Bandwidth()
}

// SetBandwidth installs a new bandwidth. A transient device failure during
// the update degrades the model to the host path (see health.go) and
// installs the bandwidth there.
func (e *Estimator) SetBandwidth(h []float64) error {
	if e.eng != nil {
		if err := e.deviceOp("bandwidth update", func() error { return e.eng.SetBandwidth(h) }); err != nil {
			return err
		}
		if e.eng != nil {
			return nil // device path succeeded
		}
	}
	return e.host.SetBandwidth(h)
}

// SetWorkers adjusts the host execution parallelism at runtime (same
// semantics as Config.Workers). Results are unaffected — only wall-clock
// time changes. It is a no-op on the device path.
func (e *Estimator) SetWorkers(n int) {
	e.cfg.Workers = n
	if e.host != nil {
		e.host.SetWorkers(n)
		e.host.Pool().Instrument(e.met.reg)
		e.publishSnapshot() // future views evaluate on the new pool
	}
}

// SetPool installs a specific host worker pool instead of letting the
// estimator derive one from a Workers count — the model registry hands the
// same pool to every resident model so cross-model host parallelism is
// arbitrated by one set of instruments and one worker budget. A nil pool
// selects serial execution. Results are unaffected (see Config.Workers);
// no-op on the device path.
func (e *Estimator) SetPool(p *parallel.Pool) {
	e.cfg.Workers = p.Workers()
	if e.host != nil {
		e.host.SetPool(p)
		e.publishSnapshot() // future views evaluate on the new pool
	}
}

// Device returns the simulated device, or nil for host execution.
func (e *Estimator) Device() *gpu.Device {
	if e.eng != nil {
		return e.eng.Device()
	}
	return nil
}

// Estimate returns the estimated selectivity of q (step 1-4 of Figure 3 on
// a device; the closed form of eq. 13 on the host). Contributions are
// retained for the subsequent Feedback call.
//
// Estimate is hardened for the query-optimizer boundary: malformed ranges
// (NaN/Inf bounds, inverted intervals, wrong dimensionality) are rejected
// with an error matching ErrInvalidQuery, transient device failures retry
// and then degrade to the host path, and the returned value is always a
// finite selectivity in [0, 1] — never NaN or Inf (see health.go).
func (e *Estimator) Estimate(q query.Range) (float64, error) {
	if err := ValidateQuery(e.d, q); err != nil {
		e.met.invalidQueries.Inc()
		return 0, err
	}
	if e.met.estimateSec != nil {
		start := time.Now()
		defer func() { e.met.estimateSec.ObserveDuration(time.Since(start)) }()
	}
	est, err := e.estimateRaw(q)
	if err != nil {
		return 0, err
	}
	// Count only after the estimate was actually produced, so errored calls
	// never inflate Queries().
	e.queries.Add(1)
	return e.sanitizeEstimate(q, est), nil
}

// estimateRaw runs the estimate on the active execution path, degrading
// from device to host when transient failures persist. Callers own query
// validation and output sanitization.
func (e *Estimator) estimateRaw(q query.Range) (float64, error) {
	if e.eng != nil {
		var est float64
		if err := e.deviceOp("estimate", func() error {
			var derr error
			est, derr = e.eng.Estimate(q)
			return derr
		}); err != nil {
			return 0, err
		}
		if e.eng != nil {
			e.lastQ = q.Clone()
			e.lastEst = est
			e.hasEst = true
			return est, nil
		}
		// Fell back mid-call: redo the estimate on the host below.
	}
	contrib, est, err := e.host.Contributions(q, e.lastContrib)
	if err != nil {
		return 0, err
	}
	e.lastContrib = contrib
	e.lastQ = q.Clone()
	e.lastEst = est
	e.hasEst = true
	return est, nil
}

// Feedback delivers the true selectivity observed after the database
// executed q. In Adaptive mode it performs the Listing-1 learning step and
// the karma maintenance pass; in all other modes it is a no-op so callers
// can drive every estimator uniformly.
//
// Feedback is hardened like Estimate: malformed ranges and non-finite
// actual selectivities are rejected with typed errors (ErrInvalidQuery,
// ErrInvalidFeedback), and any panic escaping the learning path is
// recovered — the event is counted, the model degrades (see health.go),
// and the call reports success, because advisory feedback must never crash
// the query optimizer. Non-finite gradients are rejected rather than fed
// to the learner; repeated rejections quarantine the open mini-batch and
// reset the bandwidth to Scott's rule.
func (e *Estimator) Feedback(q query.Range, actual float64) (err error) {
	if e.cfg.Mode != Adaptive {
		return nil
	}
	if verr := ValidateFeedback(e.d, q, actual); verr != nil {
		e.met.invalidQueries.Inc()
		return verr
	}
	actual = Clamp01(actual)
	if e.met.feedbackSec != nil {
		start := time.Now()
		defer func() { e.met.feedbackSec.ObserveDuration(time.Since(start)) }()
	}
	// Whatever the learning step and karma maintenance did to the model,
	// readers see it only through the next published snapshot.
	defer e.publishSnapshot()
	defer func() {
		if r := recover(); r != nil {
			e.met.feedbackPanics.Inc()
			e.fbPanics++
			reason := fmt.Sprintf("panic recovered in feedback path: %v", r)
			if e.fbPanics >= 2 {
				e.enterSerialFallback(reason)
			} else {
				e.Degrade(Degraded, reason)
			}
			err = nil
		}
	}()
	if !e.hasEst || !e.lastQ.Equal(q) {
		if _, err := e.Estimate(q); err != nil {
			return err
		}
		e.queries.Add(-1) // re-estimation for feedback is not a user query
	}

	// Bandwidth learning step: ∇_H L = ∂L/∂p̂ · ∂p̂/∂H (eq. 14).
	h := e.Bandwidth()
	var grad []float64
	var est float64
	if e.eng != nil {
		if derr := e.deviceOp("gradient", func() error {
			var gerr error
			est, grad, gerr = e.eng.Gradient(q)
			return gerr
		}); derr != nil {
			return derr
		}
	}
	if e.eng == nil { // host path, possibly entered by a mid-call fallback
		if !e.hasEst || !e.lastQ.Equal(q) {
			if _, err := e.Estimate(q); err != nil {
				return err
			}
			e.queries.Add(-1)
		}
		grad = make([]float64, e.d)
		var herr error
		est, herr = e.host.SelectivityGradient(q, grad)
		if herr != nil {
			return herr
		}
	}
	e.tuner.lossGradient(grad, est, actual)

	// Karma maintenance runs first: it consumes the contributions retained
	// under the current bandwidth, which the learning step may invalidate.
	if err := e.maintainSample(q, actual); err != nil {
		return err
	}
	return e.tuner.step(grad, h)
}

// FeedbackBatch delivers the true selectivities of a whole batch of
// executed queries at once — the bulk-training path for replaying a
// feedback log. In Adaptive mode on the host, every loss gradient is
// evaluated at the current bandwidth in a single (optionally parallel)
// traversal of the sample shared by all queries (kde.GradientBatch), then
// folded into the learner as one mini-batch sequence; when the batch size
// divides the learner's mini-batch boundary the resulting bandwidth is
// bit-identical to per-query Feedback. On the device path the engine
// retains per-query state, so the batch is processed sequentially.
//
// Unlike Feedback, no karma sample maintenance runs: replayed feedback was
// not necessarily estimated against the current sample, so punishing the
// sample for queries it never served would be wrong. Non-adaptive modes
// ignore the call.
func (e *Estimator) FeedbackBatch(fbs []query.Feedback) error {
	if e.cfg.Mode != Adaptive || len(fbs) == 0 {
		return nil
	}
	for _, fb := range fbs {
		if err := ValidateFeedback(e.d, fb.Query, fb.Actual); err != nil {
			e.met.invalidQueries.Inc()
			return err
		}
	}
	defer e.publishSnapshot()
	h := e.Bandwidth()
	var grads []float64
	if e.eng != nil {
		grads = make([]float64, len(fbs)*e.d)
		for i, fb := range fbs {
			var est float64
			var g []float64
			if err := e.deviceOp("gradient", func() error {
				var gerr error
				est, g, gerr = e.eng.Gradient(fb.Query)
				return gerr
			}); err != nil {
				return err
			}
			if e.eng == nil {
				// Fell back mid-batch: restart the whole batch on the host
				// (no learner state was touched yet).
				return e.FeedbackBatch(fbs)
			}
			copy(grads[i*e.d:], g)
			e.tuner.scale(grads[i*e.d:(i+1)*e.d], est, fb.Actual)
		}
	} else {
		qs := make([]query.Range, len(fbs))
		for i, fb := range fbs {
			qs[i] = fb.Query
		}
		ests := make([]float64, len(fbs))
		grads = make([]float64, len(fbs)*e.d)
		if err := e.host.GradientBatch(qs, ests, grads); err != nil {
			return err
		}
		// ∇_H L = ∂L/∂p̂ · ∂p̂/∂H (eq. 14), per query.
		for i, fb := range fbs {
			e.tuner.scale(grads[i*e.d:(i+1)*e.d], ests[i], fb.Actual)
		}
	}
	return e.tuner.stepBatch(grads, h)
}

// maintainSample performs the karma update and point replacements of §4.2.
func (e *Estimator) maintainSample(q query.Range, actual float64) error {
	if e.maint.Karma == nil {
		return nil
	}
	if e.eng == nil {
		return e.maint.KarmaPass(estimatorSlots{e}, e.tab, q, e.Bandwidth(), e.kern, e.lastContrib, e.lastEst, actual)
	}
	// The device runs the same pass over its retained contributions.
	idx, err := e.eng.UpdateKarma(e.maint.Karma, actual)
	if err != nil {
		return err
	}
	return e.maint.ReplaceOutdated(estimatorSlots{e}, e.tab, idx)
}

// estimatorSlots gives sample maintenance slot access to the estimator's
// sample: the host estimator's buffer, or the device with its host mirror.
type estimatorSlots struct{ e *Estimator }

func (s estimatorSlots) Len() int { return s.e.s }

func (s estimatorSlots) Point(i int) []float64 {
	d := s.e.d
	return s.e.sampleRef()[i*d : (i+1)*d]
}

func (s estimatorSlots) Replace(i int, row []float64) error {
	e := s.e
	e.replacements++
	e.hasEst = false
	if e.eng != nil {
		if err := e.deviceOp("point replacement", func() error { return e.eng.ReplacePoint(i, row) }); err != nil {
			return err
		}
		if e.eng != nil {
			copy(e.hostMirror[i*e.d:(i+1)*e.d], row)
			return nil
		}
		// Fell back mid-call: the mirror (now the host sample) predates
		// this replacement, so apply it on the host path below.
	}
	return e.host.ReplacePoint(i, row)
}

// Reoptimize re-runs the batch bandwidth optimization over fresh feedback,
// usable from any mode (e.g. periodic re-tuning of a Batch estimator).
func (e *Estimator) Reoptimize(fbs []query.Feedback) error {
	// The tier's error profile depends on the bandwidth: force the next
	// publish to re-verify (and retry a previously refused tier).
	e.invalidatePrecision()
	defer e.publishSnapshot()
	flat, err := e.sampleHost()
	if err != nil {
		return err
	}
	h, err := bandwidth.Optimal(flat, e.d, fbs, e.batchOptions(e.met.reg))
	if err != nil {
		return err
	}
	return e.SetBandwidth(h)
}

func (e *Estimator) sampleHost() ([]float64, error) {
	if e.eng != nil {
		var out []float64
		err := e.retryDevice(func() error {
			var serr error
			out, serr = e.eng.SampleHost()
			return serr
		})
		return out, err
	}
	flat := e.host.SampleFlat()
	out := make([]float64, len(flat))
	copy(out, flat)
	return out, nil
}

// sampleRef returns the current sample row-major without copying: the
// device mirror on the device path, the host estimator's backing store
// otherwise. Callers may only read it.
func (e *Estimator) sampleRef() []float64 {
	if e.eng != nil {
		return e.hostMirror
	}
	return e.host.SampleFlat()
}

// ApplyMutations applies a batch of change-feed events in sequence order
// with a single snapshot republish at the end — the synchronized apply path
// the ingestion bridge drives through core.Server.ApplyMutations. Callers
// must hold the writer lock (or be the single writer). The result is
// bit-identical to applying the same events one at a time: only the publish
// frequency differs, and publishing never changes model state.
func (e *Estimator) ApplyMutations(ms []table.Mutation) error {
	changed, err := e.maint.Apply(estimatorSlots{e}, ms)
	if changed {
		e.publishSnapshot()
	}
	return err
}

// IngestCursor returns the highest change-feed sequence number applied so
// far (0 before any batch carries sequence numbers). It is captured in
// checkpoints for exactly-once resume.
func (e *Estimator) IngestCursor() uint64 { return e.maint.Cursor }

// Detach removes the estimator's direct table subscription, if any. After
// Detach returns no further change notifications reach the estimator; a
// serving stack then routes the feed through ApplyMutations instead.
func (e *Estimator) Detach() {
	if e.tab != nil {
		e.tab.Unsubscribe(e)
	}
}

// OnInsert implements table.Listener: the direct single-writer path used by
// the experiment drivers, where the estimator subscribes to its table
// without a core.Server in front. Serving stacks detach this path and route
// the feed through internal/ingest instead, which batches republishes and
// holds the writer lock.
func (e *Estimator) OnInsert(row []float64) {
	_ = e.ApplyMutations([]table.Mutation{{Kind: table.MutInsert, Row: row}})
}

// OnDelete implements table.Listener (direct single-writer path); see
// sample.Maintainer for the evict-and-resample semantics.
func (e *Estimator) OnDelete(row []float64) {
	_ = e.ApplyMutations([]table.Mutation{{Kind: table.MutDelete, Row: row}})
}

// OnUpdate implements table.Listener (direct single-writer path); see
// sample.Maintainer for the patch-in-place semantics.
func (e *Estimator) OnUpdate(oldRow, newRow []float64) {
	_ = e.ApplyMutations([]table.Mutation{{Kind: table.MutUpdate, Row: newRow, Pre: oldRow}})
}
