// The adaptive bandwidth-learning step of §4.1 (Listing 1) and the
// model-recovery policy around it. Both model engines — the Estimator and
// the sharded group of internal/shard — compute a feedback's (estimate,
// selectivity gradient) pair their own way and hand it to one Tuner, so the
// mini-batch RMSprop step, the learner guards and the Scott's-rule reset
// exist once.
package core

import (
	"fmt"
	"math"

	"kdesel/internal/fault"
	"kdesel/internal/kde"
	"kdesel/internal/learner"
	"kdesel/internal/loss"
	"kdesel/internal/metrics"
)

// Learner-protection thresholds (see health.go for the recovery ladder).
const (
	// gradTripLimit is how many consecutive rejected (non-finite) feedback
	// gradients trigger quarantine of the open mini-batch plus a
	// Scott's-rule bandwidth reset.
	gradTripLimit = 3
	// clampStreakLimit is how many consecutive mini-batch updates may hit
	// the §4.1 safeguard clamp in every dimension before the learner is
	// considered wedged and the model is reset. Legitimate adaptation
	// clamps single dimensions routinely but essentially never clamps all
	// of them this many batches in a row.
	clampStreakLimit = 10
)

// tuner is one model's bandwidth-learning step: the RMSprop learner, the
// guards that decide when its output cannot be trusted, and the
// Scott's-rule reset they fall back to. The Estimator embeds one; other
// engines hold it through Tuner. The engine supplies its host sample and a
// way to install a bandwidth, and serializes all calls (its writer lock).
type tuner struct {
	d      int
	learn  *learner.RMSprop // nil for a model that never learns
	lf     loss.Function
	faults *fault.Injector
	ladder *Ladder

	// sample returns the model's current sample, row-major, without
	// touching a device. install puts h on every serving path of the
	// model; reset marks a Scott's-rule reset rather than a learner step.
	sample  func() ([]float64, error)
	install func(h []float64, reset bool) error

	trips int // consecutive rejected gradients
	met   tunerMetrics
}

type tunerMetrics struct {
	minibatch   *metrics.Counter
	rejected    *metrics.Counter
	quarantined *metrics.Counter
	resets      *metrics.Counter
}

// instrument resolves the step's counters, under the same core.* names for
// both engines, the learner's own instruments, the ladder's transition
// counter and its position as the gauge core.health (0 healthy, 1 degraded,
// 2 fallback). nil detaches. Call it at setup, not concurrently with
// Degrade.
func (t *tuner) instrument(reg *metrics.Registry) {
	t.ladder.events = reg.Counter("core.degradation_events")
	reg.RegisterGaugeFunc("core.health", func() float64 { return float64(t.ladder.Health()) })
	t.met = tunerMetrics{
		minibatch:   reg.Counter("core.minibatch_updates"),
		rejected:    reg.Counter("core.gradients_rejected"),
		quarantined: reg.Counter("core.gradients_quarantined"),
		resets:      reg.Counter("core.bandwidth_resets"),
	}
	if t.learn != nil {
		t.learn.Instrument(reg)
	}
}

// lossGradient turns one feedback's selectivity gradient ∂p̂/∂H into the
// loss gradient ∇_H L = ∂L/∂p̂ · ∂p̂/∂H (eq. 14), in place. It is the
// fault.GradientNonFinite injection point.
func (t *tuner) lossGradient(grad []float64, est, actual float64) {
	if t.faults.Fire(fault.GradientNonFinite) && len(grad) > 0 {
		grad[0] = math.NaN()
	}
	t.scale(grad, est, actual)
}

// scale multiplies grad by the loss derivative ∂L/∂p̂ at (est, actual).
func (t *tuner) scale(grad []float64, est, actual float64) {
	dl := t.lf.Deriv(est, actual)
	for j := range grad {
		grad[j] *= dl
	}
}

// step folds one loss gradient into the open mini-batch. h is a copy of
// the current bandwidth; when the batch fills, the learner updates it and
// step installs it. A non-finite gradient is absorbed, not propagated: the
// learner rejects it and the model stays serviceable. Repeated rejections
// mean the model itself is poisoned, so the gradTripLimit-th in a row
// resets it.
func (t *tuner) step(grad, h []float64) error {
	updated, err := t.learn.Observe(grad, h)
	if err != nil {
		t.met.rejected.Inc()
		t.trips++
		if t.trips >= gradTripLimit {
			return t.reset("repeated non-finite feedback gradients")
		}
		return nil
	}
	t.trips = 0
	if !updated {
		return nil
	}
	t.met.minibatch.Inc()
	return t.apply(h)
}

// stepBatch folds a row-major n×d block of loss gradients in order, as n
// steps would, and installs the bandwidth once at the end. The batch stops
// at a non-finite gradient, so a rejection quarantines the open mini-batch
// and resets the model at once rather than waiting for a streak.
func (t *tuner) stepBatch(grads, h []float64) error {
	updates, err := t.learn.ObserveBatch(grads, h)
	t.met.minibatch.Add(int64(updates))
	if err != nil {
		t.met.rejected.Inc()
		return t.reset("non-finite gradient in feedback batch")
	}
	if updates == 0 {
		return nil
	}
	return t.apply(h)
}

// apply installs a learner-updated bandwidth, or resets the model when the
// update shows the learner has gone wrong.
func (t *tuner) apply(h []float64) error {
	if t.learn.ConsecutiveFullClamps() >= clampStreakLimit {
		// Every dimension pinned against the safeguard for many
		// consecutive batches: the learner is wedged, not learning.
		return t.reset("learner wedged against safeguard clamps")
	}
	for _, v := range h {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return t.reset("learner produced a non-positive or non-finite bandwidth")
		}
	}
	return t.install(h, false)
}

// reset abandons the learned bandwidth and installs Scott's rule (§3.2)
// over the current sample — the starting point ANALYZE uses — and
// reinitializes the learner so stale adaptation state cannot immediately
// re-poison the model. The open mini-batch is quarantined (dropped), since
// it accumulated gradients under the abandoned bandwidth. The model takes
// the Degraded rung with reason as the cause.
func (t *tuner) reset(reason string) error {
	flat, err := t.sample()
	if err != nil {
		return err
	}
	h := kde.ScottBandwidth(flat, t.d)
	for _, v := range h {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("core: scott reset impossible: sample yields bandwidth %v", h)
		}
	}
	if t.learn != nil {
		t.met.quarantined.Add(int64(t.learn.DropBatch()))
		t.learn.Reset()
	}
	t.trips = 0
	if err := t.install(h, true); err != nil {
		return err
	}
	t.met.resets.Inc()
	t.ladder.Degrade(Degraded, reason)
	return nil
}

// state returns the step's part of a checkpoint: the learner's
// accumulators, nil for a model that never learns, and the rejection
// streak.
func (t *tuner) state() (*learner.State, int) {
	if t.learn == nil {
		return nil, t.trips
	}
	ls := t.learn.State()
	return &ls, t.trips
}

// restore reinstates a state; a nil ls leaves the learner as it is.
func (t *tuner) restore(ls *learner.State, trips int) error {
	t.trips = trips
	if ls == nil || t.learn == nil {
		return nil
	}
	return t.learn.Restore(*ls)
}

// Tuner is the learning step for a model engine outside this package (the
// sharded group): the same code the Estimator runs, behind the calls such
// an engine needs. The Estimator embeds the unexported tuner instead, so
// the step's calls do not join its public method set.
type Tuner struct{ t tuner }

// NewTuner returns the learning step of a d-dimensional model that learns
// through learn, scores feedback with lf, fires fault.GradientNonFinite on
// faults, and takes its degradations on ladder. sample returns the model's
// sample row-major; install puts a bandwidth on the model, with reset true
// for a Scott's-rule reset.
func NewTuner(d int, learn *learner.RMSprop, lf loss.Function, faults *fault.Injector, ladder *Ladder,
	sample func() ([]float64, error), install func(h []float64, reset bool) error) *Tuner {
	return &Tuner{tuner{d: d, learn: learn, lf: lf, faults: faults, ladder: ladder, sample: sample, install: install}}
}

// Instrument attaches the step's core.* counters, the learner's learner.*
// instruments and the ladder's core.degradation_events and core.health to
// reg; nil detaches.
func (t *Tuner) Instrument(reg *metrics.Registry) { t.t.instrument(reg) }

// LossGradient scales a feedback's selectivity gradient into the loss
// gradient in place. Call it before sample maintenance, then Step.
func (t *Tuner) LossGradient(grad []float64, est, actual float64) {
	t.t.lossGradient(grad, est, actual)
}

// Step folds one loss gradient into the learner; h is a scratch copy of the
// current bandwidth. It installs the updated bandwidth when a mini-batch
// completes, and resets the model to Scott's rule when the learner is
// poisoned or wedged.
func (t *Tuner) Step(grad, h []float64) error { return t.t.step(grad, h) }

// State returns the step's part of a checkpoint: the learner's
// accumulators and the rejection streak.
func (t *Tuner) State() (*learner.State, int) { return t.t.state() }

// Restore reinstates a State.
func (t *Tuner) Restore(ls *learner.State, trips int) error { return t.t.restore(ls, trips) }
