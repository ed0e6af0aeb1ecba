package registry

import (
	"fmt"

	"kdesel/internal/ingest"
	"kdesel/internal/query"
	"kdesel/internal/table"
)

// IngestOptions configures continuous ingestion for one model. The zero
// value is usable: default ring and batch sizes, default drift detection,
// drift-triggered ANALYZE once 8 recent feedback observations exist.
type IngestOptions struct {
	// RingSize bounds the mutation buffer (see ingest.Config.RingSize).
	RingSize int
	// MaxBatch caps mutations per synchronized apply (see ingest.Config).
	MaxBatch int
	// Drift tunes the insert-stream drift detector.
	Drift ingest.DriftConfig
	// AnalyzeMin is how many recent feedback observations must exist for a
	// drift trigger to schedule a background ANALYZE (default 8; negative
	// disables drift-triggered ANALYZE).
	AnalyzeMin int
}

// ingestFeedbackKeep bounds the per-model ring of recent feedback kept for
// drift-triggered ANALYZE.
const ingestFeedbackKeep = 64

// entryApplier routes bridge batches to the entry's current serving
// handle. It never restores an evicted model: eviction closes the bridge
// first (flushing the ring), so a nil handle can only be the brief
// teardown window of a racing evict. Applying counts as model use —
// a model under active ingestion is not idle.
type entryApplier struct{ ent *entry }

func (a entryApplier) ApplyMutations(ms []table.Mutation) error {
	a.ent.touch()
	if m := a.ent.current(); m != nil {
		return m.ApplyMutations(ms)
	}
	return fmt.Errorf("registry: model %v is not resident", a.ent.key)
}

// AttachIngest switches key's model from the per-mutation direct feed path
// to a bounded-lag ingestion bridge (internal/ingest): mutations buffer in
// a ring and apply in batches under the model's writer lock with one
// snapshot republish per batch, drift in the insert stream schedules a
// background ANALYZE, and the model's checkpoint frames carry the feed
// cursor. The attachment is sticky: eviction flushes and closes the bridge
// before the checkpoint is cut, and restore-on-demand re-attaches a new
// bridge at the restored cursor. Attaching to an already-ingesting model
// is a no-op (the original options stay in force); restoring the
// per-mutation path requires DetachIngest.
func (r *Registry) AttachIngest(key Key, opts IngestOptions) error {
	ent, err := r.entryFor(key)
	if err != nil {
		return err
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.bridge.Load() != nil {
		ent.ingOn.Store(true)
		return nil
	}
	ent.ingCfg = opts
	ent.ingOn.Store(true)
	if err := r.residentLocked(ent); err != nil {
		return err
	}
	return r.attachIngestLocked(ent)
}

// DetachIngest closes key's ingestion bridge (applying everything it
// buffered) and re-subscribes the model's direct synchronized feed path.
func (r *Registry) DetachIngest(key Key) error {
	ent, err := r.entryFor(key)
	if err != nil {
		return err
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	ent.ingOn.Store(false)
	br := ent.bridge.Swap(nil)
	if br == nil {
		return nil
	}
	cerr := br.Close()
	if m := ent.current(); m != nil {
		ent.tab.Subscribe(m)
	}
	return cerr
}

// attachIngestLocked detaches the model's direct feed subscription and
// starts a bridge continuing from the model's current cursor; caller holds
// ent.mu and the model is resident. No-op when a bridge already runs.
func (r *Registry) attachIngestLocked(ent *entry) error {
	if ent.bridge.Load() != nil {
		return nil
	}
	m := ent.current()
	if m == nil {
		return fmt.Errorf("registry: model %v is not resident", ent.key)
	}
	m.DetachFeed()
	br, err := ingest.Attach(ent.tab, entryApplier{ent}, ingest.Config{
		RingSize: ent.ingCfg.RingSize,
		MaxBatch: ent.ingCfg.MaxBatch,
		Cursor:   m.IngestCursor(),
		Drift:    ent.ingCfg.Drift,
		OnDrift:  func(d ingest.Drift) { r.onDrift(ent, d) },
		Metrics:  r.met.WithPrefix(ent.key.MetricPrefix()),
	})
	if err != nil {
		return err
	}
	ent.bridge.Store(br)
	return nil
}

// closeIngestLocked flushes and closes ent's bridge, if any; caller holds
// ent.mu. Called before eviction checkpoints so the checkpoint captures
// every buffered mutation and the matching cursor.
func (ent *entry) closeIngestLocked() {
	if br := ent.bridge.Swap(nil); br != nil {
		_ = br.Close()
	}
}

// onDrift runs on the bridge's applier goroutine, so it only schedules:
// the background ANALYZE worker does the optimization. Models with no
// recent feedback skip the trigger — ANALYZE needs queries to tune
// against, and a write-only model gets re-tuned on its first workload.
func (r *Registry) onDrift(ent *entry, d ingest.Drift) {
	min := ent.ingCfg.AnalyzeMin
	if min == 0 {
		min = 8
	}
	if min < 0 {
		return
	}
	fbs := ent.recentFeedback()
	if len(fbs) < min {
		return
	}
	if err := r.ScheduleAnalyze(ent.key, fbs); err == nil {
		r.driftAnalyzes.Inc()
	}
}

// recordFeedback keeps the last ingestFeedbackKeep observations for
// drift-triggered ANALYZE; only models with ingestion attached pay for it.
func (ent *entry) recordFeedback(q query.Range, actual float64) {
	if !ent.ingOn.Load() {
		return
	}
	ent.fbMu.Lock()
	if len(ent.fbBuf) < ingestFeedbackKeep {
		ent.fbBuf = append(ent.fbBuf, query.Feedback{Query: q, Actual: actual})
	} else {
		ent.fbBuf[ent.fbNext] = query.Feedback{Query: q, Actual: actual}
	}
	ent.fbNext = (ent.fbNext + 1) % ingestFeedbackKeep
	ent.fbMu.Unlock()
}

func (ent *entry) recentFeedback() []query.Feedback {
	ent.fbMu.Lock()
	defer ent.fbMu.Unlock()
	return append([]query.Feedback(nil), ent.fbBuf...)
}

// IngestRows appends rows to key's backing table through the change feed.
// A default ingestion bridge is attached first if none is (restoring the
// model if it was evicted), so serving-API writers always get the batched,
// backpressured path — never an unsynchronized sample mutation. Blocks
// when the ring is full: backpressure propagates to the writer.
func (r *Registry) IngestRows(key Key, rows [][]float64) error {
	ent, err := r.entryFor(key)
	if err != nil {
		return err
	}
	if err := r.ensureIngest(ent); err != nil {
		return err
	}
	return ent.tab.InsertMany(rows)
}

// IngestDeleteWhere deletes every row matching q from key's backing table
// through the change feed, returning how many were removed. Attaches a
// default bridge first like IngestRows.
func (r *Registry) IngestDeleteWhere(key Key, q query.Range) (int, error) {
	ent, err := r.entryFor(key)
	if err != nil {
		return 0, err
	}
	if err := r.ensureIngest(ent); err != nil {
		return 0, err
	}
	return ent.tab.DeleteWhere(q)
}

// ensureIngest attaches a default bridge when none is attached.
func (r *Registry) ensureIngest(ent *entry) error {
	if ent.bridge.Load() != nil {
		return nil
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.bridge.Load() != nil {
		return nil
	}
	ent.ingOn.Store(true)
	if err := r.residentLocked(ent); err != nil {
		return err
	}
	return r.attachIngestLocked(ent)
}

// IngestStats returns the bridge statistics for key's model; ok is false
// when no bridge is attached (or the key is unknown).
func (r *Registry) IngestStats(key Key) (ingest.Stats, bool) {
	ent, err := r.entryFor(key)
	if err != nil {
		return ingest.Stats{}, false
	}
	br := ent.bridge.Load()
	if br == nil {
		return ingest.Stats{}, false
	}
	return br.Stats(), true
}

// IngestLag returns the buffered-but-unapplied mutation count for key's
// model; zero when no bridge is attached.
func (r *Registry) IngestLag(key Key) int {
	st, ok := r.IngestStats(key)
	if !ok {
		return 0
	}
	return st.Depth
}
