package kde

import (
	"kdesel/internal/kernel"
	"kdesel/internal/mathx"
	"kdesel/internal/query"
)

// View is an immutable, point-in-time snapshot of an Estimator, safe for
// concurrent read-only evaluation. It is the unit the serving layer
// publishes through an atomic pointer (core.Server): estimates run against
// whatever view is current, while the writer mutates its own estimator and
// publishes a fresh view when done.
//
// Safety rests on three properties: the view's sample buffers are never
// written after construction (Snapshot copies them out of the writer, or
// reuses a previous view's frozen buffers); the scratch pools start as fresh
// zero values (sync.Pool and parallel.BufferPool are safe for concurrent
// use); and the erf mode and serving precision are pinned at snapshot time,
// so every estimate served from one view uses one consistent erf
// implementation and one numeric tier even if the process-global mathx
// switch flips or the writer reconfigures precision mid-flight.
type View struct {
	est *Estimator
}

// Snapshot freezes the estimator's current model state into a View. The
// bandwidth vector is always copied (it is small and mutates on every
// feedback); the sample buffers are copied only when the sample content has
// changed since prev was taken — a bandwidth-only update reuses prev's
// frozen sample and columnar buffers, making the publish a cheap pointer
// swap. Pass nil for prev to force a full copy.
//
// Snapshot returns nil when the estimator has no sample or no bandwidth
// (nothing servable to freeze). The receiver itself is not retained: the
// view never aliases writer-mutable memory.
func (e *Estimator) Snapshot(prev *View) *View {
	if e.Size() == 0 || e.h == nil {
		return nil
	}
	v := &Estimator{
		d:            e.d,
		kern:         e.kern,
		forceGeneric: e.forceGeneric,
		gen:          e.gen,
		erfPinned:    true,
		erfFast:      e.fastErf(),
		prec:         e.prec,
		pool:         e.pool,
	}
	if e.kerns != nil {
		v.kerns = make([]kernel.Kernel, len(e.kerns))
		copy(v.kerns, e.kerns)
	}
	v.h = make([]float64, len(e.h))
	copy(v.h, e.h)
	if prev != nil && prev.est.gen == e.gen && prev.est.d == e.d &&
		len(prev.est.data) == len(e.data) && prev.est.prec == e.prec {
		// Sample content unchanged since the previous view: its buffers are
		// frozen (no writer ever touches a published view), so they can be
		// shared instead of copied. The float32 tier is derived from the same
		// content at the same precision, so it is shared on the same
		// condition.
		v.data = prev.est.data
		v.cols = prev.est.cols
		v.cols32 = prev.est.cols32
	} else {
		v.data = make([]float64, len(e.data))
		copy(v.data, e.data)
		v.cols = make([]float64, len(e.cols))
		copy(v.cols, e.cols)
		if len(e.cols32) > 0 {
			v.cols32 = make([]float32, len(e.cols32))
			copy(v.cols32, e.cols32)
		}
	}
	return &View{est: v}
}

// Selectivity estimates the selectivity of q against the frozen model. Safe
// for concurrent use; bit-identical to calling Selectivity on the source
// estimator at snapshot time (same chunk grid, same fused arithmetic, same
// resolved erf mode).
func (v *View) Selectivity(q query.Range) (float64, error) {
	return v.est.Selectivity(q)
}

// SelectivityBatch estimates every query of qs in one pass over the frozen
// sample, writing into ests (length len(qs)). Safe for concurrent use.
func (v *View) SelectivityBatch(qs []query.Range, ests []float64) error {
	return v.est.SelectivityBatch(qs, ests)
}

// SelectivityBatchPartials runs the batched estimate pass against the frozen
// model but stops before the reduction, filling partials with per-chunk
// unnormalized mass sums (see Estimator.SelectivityBatchPartials). Safe for
// concurrent use; this is the per-shard scatter primitive of internal/shard.
func (v *View) SelectivityBatchPartials(qs []query.Range, partials []float64) error {
	return v.est.SelectivityBatchPartials(qs, partials)
}

// Bandwidth returns a copy of the frozen bandwidth vector.
func (v *View) Bandwidth() []float64 { return v.est.Bandwidth() }

// SampleFlat exposes the frozen row-major sample buffer. Callers must treat
// it as read-only: views may share sample buffers with each other.
func (v *View) SampleFlat() []float64 { return v.est.data }

// Dims returns the dimensionality of the frozen model.
func (v *View) Dims() int { return v.est.d }

// Size returns the frozen sample size.
func (v *View) Size() int { return v.est.Size() }

// Gen returns the sample-content generation the view was taken at; two views
// with equal Gen (from the same source estimator) hold identical samples.
func (v *View) Gen() uint64 { return v.est.gen }

// FastErf reports the erf mode pinned into the view at snapshot time.
func (v *View) FastErf() bool { return v.est.erfFast }

// Precision reports the serving precision pinned into the view at snapshot
// time: the tier every estimate served from this view reads through.
// Precision changes only by publishing a new snapshot, never mid-flight.
func (v *View) Precision() mathx.Precision { return v.est.prec }
