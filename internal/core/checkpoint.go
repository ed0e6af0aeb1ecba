package core

import (
	"kdesel/internal/checkpoint"
	"kdesel/internal/gpu"
	"kdesel/internal/learner"
	"kdesel/internal/sample"
	"kdesel/internal/table"
)

// chkState is the checkpoint payload: the persistent model snapshot of
// persist.go plus the transient state Save deliberately rebuilds — learner
// accumulators, reservoir stream position, rng stream position, execution
// configuration, and degradation state. Restoring all of it makes the
// resumed estimator bit-identical to the one that took the checkpoint: the
// same estimates, the same future mini-batch updates, and the same future
// random decisions (karma replacement rows, reservoir accepts).
type chkState struct {
	Snap          snapshot
	Learner       *learner.State
	ReservoirSeen int
	RNGDraws      uint64
	Workers       int
	Health        int
	LastEvent     string
	GradTrips     int
	// IngestSeq is the change-feed cursor (see Estimator.IngestCursor).
	// Gob omits zero values, so frames written before ingestion existed
	// restore with cursor 0 — the correct "nothing applied" meaning.
	IngestSeq uint64
}

// Checkpoint atomically writes the estimator's complete state to path in
// the framed, CRC-checked format of internal/checkpoint. The sample is
// read from the host-resident mirror on the device path, so a failing
// device cannot block checkpointing. The estimator remains usable.
func (e *Estimator) Checkpoint(path string) error {
	flat, err := e.sampleHostLocal()
	if err != nil {
		return err
	}
	ms := e.maint.State()
	st := chkState{
		Snap:          e.makeSnapshot(flat, ms.Karma),
		ReservoirSeen: ms.Seen,
		RNGDraws:      ms.Draws,
		Workers:       e.cfg.Workers,
		Health:        int(e.Health()),
		LastEvent:     e.LastDegradation(),
		IngestSeq:     ms.Cursor,
	}
	st.Learner, st.GradTrips = e.tuner.state()
	// The configured serving precision rides in the frame's meta word (low
	// byte), so restore rebuilds — and re-verifies — the same tier.
	if err := checkpoint.WriteFileMeta(path, &st, uint32(e.precWant), e.faults); err != nil {
		return err
	}
	e.met.checkpoints.Inc()
	return nil
}

// RestoreCheckpoint rebuilds an estimator from a checkpoint file written by
// Checkpoint, bound to tab and optionally placed on dev. Corrupted files
// are detected by the CRC frame and reported as checkpoint.ErrCorrupt —
// the file is never partially applied. The restored estimator reproduces
// the original bit for bit: the learner resumes mid-mini-batch and the
// random stream is fast-forwarded to the recorded position. Call
// Instrument afterwards to attach telemetry (registries are not persisted).
func RestoreCheckpoint(path string, tab *table.Table, dev *gpu.Device) (*Estimator, error) {
	var st chkState
	meta, err := checkpoint.ReadFileMeta(path, &st)
	if err != nil {
		return nil, err
	}
	ms := sample.State{Draws: st.RNGDraws, Seen: st.ReservoirSeen, Karma: st.Snap.KarmaScores, Cursor: st.IngestSeq}
	e, err := restoreFromSnapshot(st.Snap, ms, tab, dev)
	if err != nil {
		return nil, err
	}
	if err := e.tuner.restore(st.Learner, st.GradTrips); err != nil {
		return nil, err
	}
	e.cfg.Workers = st.Workers
	if e.host != nil {
		e.host.SetWorkers(st.Workers)
	}
	e.Ladder.restore(Health(st.Health), st.LastEvent)
	// Reapply the checkpointed serving precision. The tier is rebuilt from
	// the restored sample and passes the verify gate again before serving.
	e.configurePrecision(PrecisionFromMeta(meta))
	return e, nil
}
