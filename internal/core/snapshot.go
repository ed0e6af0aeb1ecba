// Snapshot-isolated serving: the train/serve split of §4. The estimator's
// servable model state (sample + columnar mirror + bandwidth + erf mode) is
// frozen into an immutable kde.View and published through an atomic pointer;
// Estimate/EstimateBatch run lock-free against whatever view is current,
// while the single writer — Feedback, karma/reservoir maintenance, ANALYZE
// (Reoptimize), checkpoint restore — mutates its own estimator and publishes
// a fresh view on completion. A multi-second bandwidth re-optimization
// therefore never stalls the estimate path: readers keep serving the
// pre-ANALYZE model until the swap, and an estimate's latency is bounded by
// one batch evaluation plus a pointer load.
//
// Staleness contract: a reader may observe the pre-mutation model for one
// swap interval (the writer publishes after its mutation completes, never
// during). Sample mutations copy the buffers (copy-on-write keyed on the
// kde generation counter); bandwidth-only updates republish sharing the
// previous view's frozen sample, so the common Feedback swap is just a
// bandwidth copy plus a pointer store.
//
// The snapshot path applies only to host-resident models. A device-placed
// model keeps serving through the writer lock: the simulated device's
// pairwise reduction is not bit-identical to the host reduction order, so
// serving a host-side copy of a device model would silently change
// estimates; on device fallback the rebuilt host model starts publishing.
package core

import (
	"math"
	"time"

	"kdesel/internal/kde"
	"kdesel/internal/query"
)

// modelSnapshot is one published generation of the servable model. (The
// unexported name avoids the persisted-state `snapshot` type of persist.go.)
type modelSnapshot struct {
	view      *kde.View
	published time.Time
}

// enableSnapshots turns on snapshot publication (idempotent) and publishes
// the current model. Called by NewServer; direct single-threaded Estimator
// use never pays for snapshots.
func (e *Estimator) enableSnapshots() {
	e.snapOn.Store(true)
	e.publishSnapshot()
}

// publishSnapshot freezes the current host model into a new view and swaps
// it in. No-op when publishing is off or the model lives on the device.
// Must be called from the writer (it reads writer-owned state); readers only
// ever Load.
func (e *Estimator) publishSnapshot() {
	if !e.snapOn.Load() || e.host == nil {
		return
	}
	// Reconcile the served tier with the configured precision first: the
	// view freezes whatever tier the host model carries, and the verify
	// gate must run before a compressed tier can reach readers.
	e.ensurePrecision()
	var prevView *kde.View
	if prev := e.snap.Load(); prev != nil {
		prevView = prev.view
	}
	view := e.host.Snapshot(prevView)
	if view == nil {
		return // nothing servable yet
	}
	e.snap.Store(&modelSnapshot{view: view, published: time.Now()})
	e.met.snapshotSwaps.Inc()
}

// estimateSnapshot serves one query lock-free from the current snapshot.
// ok=false means the caller must redo the estimate under the writer lock:
// no snapshot is published (device-placed model, or serving not enabled),
// or the view produced a non-finite value — the full recovery ladder of
// sanitizeEstimate mutates model state, so it only runs on the writer path.
// The caller has already validated the query.
func (e *Estimator) estimateSnapshot(q query.Range) (float64, bool) {
	ms := e.snap.Load()
	if ms == nil {
		return 0, false
	}
	var start time.Time
	if e.met.estimateSec != nil {
		start = time.Now()
	}
	est, err := ms.view.Selectivity(q)
	if err != nil || math.IsNaN(est) || math.IsInf(est, 0) {
		return 0, false
	}
	if e.met.estimateSec != nil {
		e.met.estimateSec.ObserveDuration(time.Since(start))
	}
	e.queries.Add(1)
	return Clamp01(est), true
}

// estimateBatchSnapshot is the batch counterpart of estimateSnapshot: the
// whole batch either serves from the snapshot (ok=true, every entry finite
// and clamped) or defers to the locked path untouched. Queries are counted
// only on success, keeping accounting exact under redo.
func (e *Estimator) estimateBatchSnapshot(qs []query.Range, ests []float64) bool {
	ms := e.snap.Load()
	if ms == nil {
		return false
	}
	var start time.Time
	if e.met.estimateSec != nil {
		start = time.Now()
	}
	if err := ms.view.SelectivityBatch(qs, ests); err != nil {
		return false
	}
	for i, v := range ests {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		ests[i] = Clamp01(v)
	}
	if e.met.estimateSec != nil {
		e.met.estimateSec.ObserveDuration(time.Since(start))
	}
	e.queries.Add(int64(len(qs)))
	return true
}

// SnapshotGen returns the sample generation of the published snapshot and
// whether one is published — test and diagnostics hook.
func (e *Estimator) SnapshotGen() (uint64, bool) {
	ms := e.snap.Load()
	if ms == nil {
		return 0, false
	}
	return ms.view.Gen(), true
}
