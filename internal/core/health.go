// Degradation state machine and input validation for the estimator.
//
// The estimator survives three classes of trouble without ever surfacing a
// panic or a non-finite selectivity to the query optimizer:
//
//   - transient device errors (the stand-in for CUDA/OpenCL runtime
//     failures, injected via internal/fault): retried with capped
//     exponential backoff, then the model migrates to the host-parallel
//     execution path from a host-resident mirror of the sample;
//   - suspected runtime corruption (a panic out of the feedback path, or a
//     non-finite estimate that survives a model reset): execution drops to
//     the serial host path, the most conservative rung of the ladder;
//   - a wedged or poisoned learner (non-finite feedback gradients, or every
//     dimension hitting the §4.1 safeguard clamp for many consecutive
//     updates): the open mini-batch is quarantined and the bandwidth is
//     reset to Scott's rule (§3.2), the same starting point ANALYZE uses.
//
// The execution ladder is GPU → host-parallel → serial; the model-recovery
// rung (Scott's-rule reset) is orthogonal and can fire on any execution
// path. Transitions are one-way within a process: health only degrades,
// never silently recovers, so operators can trust the reported state. Every
// transition is counted in internal/metrics and the most recent cause is
// kept for inspection.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"kdesel/internal/fault"
	"kdesel/internal/kde"
	"kdesel/internal/metrics"
	"kdesel/internal/query"
)

// Health describes the estimator's degradation state.
type Health int

const (
	// Healthy means the estimator runs on its configured execution path
	// with a learned (or learning) bandwidth.
	Healthy Health = iota
	// Degraded means at least one recovery action fired: the model fell
	// back from the device to the host-parallel path, or the bandwidth was
	// reset to Scott's rule. Estimates remain fully functional.
	Degraded
	// Fallback is the last rung: execution is pinned to the serial host
	// path after suspected runtime corruption (a recovered panic or a
	// non-finite estimate that survived a model reset).
	Fallback
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Fallback:
		return "fallback"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

// Ladder is a model's position on the degradation ladder plus the cause of
// its latest degradation event. Health only ever degrades within a process
// (restore a checkpoint or rebuild to clear it). Both model engines, the
// Estimator and the sharded group, embed one.
type Ladder struct {
	health atomic.Int32
	mu     sync.Mutex
	last   string
	// events counts transitions as core.degradation_events; the model's
	// learning step resolves it when the model is instrumented (tune.go).
	events *metrics.Counter
}

// Health returns the current degradation state. It never takes the owner's
// writer lock, so health and readiness probes never block behind a long
// ANALYZE.
func (l *Ladder) Health() Health { return Health(l.health.Load()) }

// LastDegradation returns a human-readable description of the most recent
// degradation event, or "" while the model is healthy.
func (l *Ladder) LastDegradation() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// Degrade records reason as the latest degradation event and moves health
// down to h unless it is already there or lower. It reports whether health
// moved, and counts the transition when it did.
func (l *Ladder) Degrade(h Health, reason string) bool {
	l.mu.Lock()
	l.last = reason
	l.mu.Unlock()
	for {
		cur := l.health.Load()
		if int32(h) <= cur {
			return false
		}
		if l.health.CompareAndSwap(cur, int32(h)) {
			l.events.Inc()
			return true
		}
	}
}

// restore reinstates a checkpointed ladder position.
func (l *Ladder) restore(h Health, last string) {
	l.health.Store(int32(h))
	l.mu.Lock()
	l.last = last
	l.mu.Unlock()
}

// SetFaultInjector attaches an estimator-level fault injector (normally
// wired through Config.Faults); nil detaches. Injectors are not part of
// the persisted state, so restored estimators start without one.
func (e *Estimator) SetFaultInjector(inj *fault.Injector) { e.tuner.faults = inj }

// ErrInvalidQuery is the class of all query-validation failures returned by
// Estimate, Feedback, and FeedbackBatch. Match with errors.Is.
var ErrInvalidQuery = errors.New("core: invalid query")

// ErrInvalidFeedback is returned by Feedback and FeedbackBatch when the
// reported true selectivity is not a finite number. Match with errors.Is.
var ErrInvalidFeedback = errors.New("core: invalid feedback")

// InvalidQueryError reports why a query range was rejected at the estimator
// boundary. It unwraps to ErrInvalidQuery.
type InvalidQueryError struct {
	// Dim is the offending dimension, or -1 for shape errors.
	Dim    int
	Reason string
}

// Error implements error.
func (iq *InvalidQueryError) Error() string {
	if iq.Dim < 0 {
		return fmt.Sprintf("core: invalid query: %s", iq.Reason)
	}
	return fmt.Sprintf("core: invalid query: %s in dimension %d", iq.Reason, iq.Dim)
}

// Unwrap makes errors.Is(err, ErrInvalidQuery) hold.
func (iq *InvalidQueryError) Unwrap() error { return ErrInvalidQuery }

// ValidateQuery rejects malformed ranges against a d-dimensional model at
// the estimator boundary: shape mismatches, NaN or infinite bounds, and
// inverted intervals. Rejecting infinities here (query.Range.Validate
// allows them) is deliberate — an unbounded predicate should be clamped to
// the attribute domain by the caller, and letting ±Inf into the kernel math
// can poison the retained per-point contributions that feed karma
// maintenance.
func ValidateQuery(d int, q query.Range) error {
	if len(q.Lo) != len(q.Hi) {
		return &InvalidQueryError{Dim: -1, Reason: fmt.Sprintf("bound length mismatch: %d vs %d", len(q.Lo), len(q.Hi))}
	}
	if q.Dims() != d {
		return &InvalidQueryError{Dim: -1, Reason: fmt.Sprintf("query has %d dims, estimator has %d", q.Dims(), d)}
	}
	for j := range q.Lo {
		lo, hi := q.Lo[j], q.Hi[j]
		switch {
		case math.IsNaN(lo) || math.IsNaN(hi):
			return &InvalidQueryError{Dim: j, Reason: "NaN bound"}
		case math.IsInf(lo, 0) || math.IsInf(hi, 0):
			return &InvalidQueryError{Dim: j, Reason: "infinite bound"}
		case lo > hi:
			return &InvalidQueryError{Dim: j, Reason: fmt.Sprintf("inverted bounds [%g, %g]", lo, hi)}
		}
	}
	return nil
}

// ValidateFeedback is ValidateQuery plus the rejection of a non-finite
// true selectivity.
func ValidateFeedback(d int, q query.Range, actual float64) error {
	if err := ValidateQuery(d, q); err != nil {
		return err
	}
	if math.IsNaN(actual) || math.IsInf(actual, 0) {
		return fmt.Errorf("%w: non-finite true selectivity %v", ErrInvalidFeedback, actual)
	}
	return nil
}

// Retry policy for transient device errors.
const (
	deviceAttempts = 3
	maxRetryDelay  = 100 * time.Millisecond
)

func (c Config) retryBaseDelay() time.Duration {
	switch {
	case c.RetryBaseDelay > 0:
		return c.RetryBaseDelay
	case c.RetryBaseDelay < 0:
		return 0 // no sleeping between attempts (tests)
	default:
		return time.Millisecond
	}
}

// retryDevice runs fn up to deviceAttempts times with capped exponential
// backoff. Only errors in the transient class (fault.ErrInjected, the
// simulation's stand-in for device runtime failures) are retried; semantic
// errors — shape mismatches, invalid bandwidths — are returned immediately
// so real bugs are never masked by retries.
func (e *Estimator) retryDevice(fn func() error) error {
	var err error
	delay := e.cfg.retryBaseDelay()
	for attempt := 1; attempt <= deviceAttempts; attempt++ {
		err = fn()
		if err == nil {
			return nil
		}
		if !errors.Is(err, fault.ErrInjected) {
			return err
		}
		if attempt == deviceAttempts {
			break
		}
		e.met.gpuRetries.Inc()
		if delay > 0 {
			time.Sleep(delay)
			if delay *= 2; delay > maxRetryDelay {
				delay = maxRetryDelay
			}
		}
	}
	return err
}

// deviceOp runs a device operation through the retry policy and, if the
// transient failure persists, migrates the model to the host path and
// reports the fallback so the caller can redo the operation there. The
// returned error is nil exactly when either the device succeeded or the
// fallback completed (check e.eng to see which).
func (e *Estimator) deviceOp(what string, fn func() error) error {
	err := e.retryDevice(fn)
	if err == nil {
		return nil
	}
	if !errors.Is(err, fault.ErrInjected) {
		return err
	}
	return e.fallbackToHost(fmt.Sprintf("%s failed after %d attempts: %v", what, deviceAttempts, err))
}

// fallbackToHost migrates the model from the device to the host-parallel
// execution path, rebuilding it from the host-resident sample mirror and
// the last known-good bandwidth. The device is abandoned (its buffers are
// simulated, so there is nothing to free).
func (e *Estimator) fallbackToHost(reason string) error {
	if e.eng == nil {
		return nil
	}
	h := e.eng.Bandwidth()
	host, err := kde.New(e.d, e.kern)
	if err != nil {
		return err
	}
	host.SetWorkers(e.cfg.Workers)
	if err := host.SetSampleFlat(e.hostMirror); err != nil {
		return err
	}
	if err := host.SetBandwidth(h); err != nil {
		return err
	}
	e.host = host
	e.eng = nil
	e.hostMirror = nil // the host estimator owns the sample now
	e.hasEst = false
	e.lastContrib = nil
	e.met.gpuFallbacks.Inc()
	e.Degrade(Degraded, reason)
	host.Pool().Instrument(e.met.reg)
	// The model now lives on the host, which makes it servable lock-free:
	// publish the first snapshot of the rebuilt estimator.
	e.publishSnapshot()
	return nil
}

// enterSerialFallback pins execution to the serial host path — the most
// conservative rung of the ladder, reached only on suspected runtime
// corruption.
func (e *Estimator) enterSerialFallback(reason string) {
	e.cfg.Workers = 0
	if e.host != nil {
		e.host.SetWorkers(0)
		e.host.Pool().Instrument(e.met.reg)
	}
	e.met.serialFallbacks.Inc()
	e.Degrade(Fallback, reason)
	e.publishSnapshot()
}

// installBandwidth is the Estimator's bandwidth hook for its learning step
// (tune.go). A Scott's-rule reset changes the tier's error profile, so it
// forces a re-verification, and republishes at once because it can fire
// outside Feedback.
func (e *Estimator) installBandwidth(h []float64, reset bool) error {
	if !reset {
		return e.SetBandwidth(h)
	}
	e.invalidatePrecision()
	if err := e.SetBandwidth(h); err != nil {
		return err
	}
	e.publishSnapshot()
	return nil
}

// sampleHostLocal returns a copy of the sample without touching the device:
// the host mirror on the device path, the host estimator's buffer otherwise.
// Recovery paths use it so that a misbehaving device cannot block its own
// repair.
func (e *Estimator) sampleHostLocal() ([]float64, error) {
	flat := e.sampleRef()
	if len(flat) != e.s*e.d {
		return nil, errors.New("core: host sample mirror unavailable")
	}
	return append([]float64(nil), flat...), nil
}

// sanitizeEstimate guarantees the value handed to the optimizer is a finite
// selectivity in [0, 1]. A non-finite raw estimate triggers the
// model-recovery rung (Scott's-rule reset) and one re-evaluation; if the
// model still produces garbage, execution drops to the serial rung and the
// estimate is pinned to the nearest bound. Estimate never returns NaN/Inf.
func (e *Estimator) sanitizeEstimate(q query.Range, est float64) float64 {
	if !math.IsNaN(est) && !math.IsInf(est, 0) {
		return Clamp01(est)
	}
	e.met.nonfiniteEst.Inc()
	if err := e.tuner.reset("non-finite estimate"); err == nil {
		if again, err2 := e.estimateRaw(q); err2 == nil && !math.IsNaN(again) && !math.IsInf(again, 0) {
			return Clamp01(again)
		}
	}
	e.enterSerialFallback("non-finite estimate survived Scott's-rule reset")
	if again, err2 := e.estimateRaw(q); err2 == nil && !math.IsNaN(again) && !math.IsInf(again, 0) {
		return Clamp01(again)
	}
	// Pin to the nearest bound and drop the retained per-query state so the
	// feedback path never consumes the non-finite contributions.
	e.hasEst = false
	if math.IsInf(est, 1) {
		return 1
	}
	return 0
}

// Clamp01 pins a finite estimate into [0, 1], the range every serving path
// returns: float rounding in the kernel sums can land a hair outside it.
func Clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	default:
		return v
	}
}
