package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"kdesel/internal/gpu"
	"kdesel/internal/kernel"
	"kdesel/internal/learner"
	"kdesel/internal/loss"
	"kdesel/internal/sample"
	"kdesel/internal/table"
)

// snapshotVersion guards the on-disk format.
const snapshotVersion = 1

// snapshot is the serialized essence of an estimator: the model (sample +
// bandwidth), its configuration identity, and the karma state of the
// maintenance layer. Transient learning-rate state is rebuilt on load (the
// RMSprop averages re-warm within one mini-batch); the checkpoint format of
// checkpoint.go additionally captures that transient state for bit-exact
// resumption.
type snapshot struct {
	Version      int
	Mode         int
	Dims         int
	Sample       []float64
	Bandwidth    []float64
	KernelName   string
	LossName     string
	Seed         int64
	Maintained   bool
	KarmaScores  []float64
	Queries      int
	Replacements int
	LearnerCfg   learner.Config
	KarmaCfg     karmaCfgSnapshot
	// KarmaLoss names a configured karma loss. Frames without it fall back
	// to LossName, which is what an unset karma loss resolves to.
	KarmaLoss string
}

// karmaCfgSnapshot mirrors sample.KarmaConfig without the non-serializable
// loss function (carried by name in KarmaLoss).
type karmaCfgSnapshot struct {
	Max        float64
	Threshold  float64
	NoScale    bool
	NoShortcut bool
}

// makeSnapshot captures the estimator's model state around the given
// host-resident copy of the sample and the maintenance scores karma.
func (e *Estimator) makeSnapshot(flat, karma []float64) snapshot {
	snap := snapshot{
		Version:      snapshotVersion,
		Mode:         int(e.cfg.Mode),
		Dims:         e.d,
		Sample:       flat,
		Bandwidth:    e.Bandwidth(),
		KernelName:   e.kern.Name(),
		LossName:     e.lf.Name(),
		Seed:         e.cfg.Seed,
		Maintained:   e.maint.Karma != nil,
		KarmaScores:  karma,
		Queries:      int(e.queries.Load()),
		Replacements: e.replacements,
		LearnerCfg:   e.cfg.Learner,
		KarmaCfg: karmaCfgSnapshot{
			Max:        e.cfg.Karma.Max,
			Threshold:  e.cfg.Karma.Threshold,
			NoScale:    e.cfg.Karma.NoScale,
			NoShortcut: e.cfg.Karma.NoShortcut,
		},
	}
	if e.cfg.Karma.Loss != nil {
		snap.KarmaLoss = e.cfg.Karma.Loss.Name()
	}
	return snap
}

// Save serializes the estimator's model state with encoding/gob. The
// estimator remains usable afterwards.
func (e *Estimator) Save(w io.Writer) error {
	flat, err := e.sampleHost()
	if err != nil {
		return err
	}
	snap := e.makeSnapshot(flat, e.maint.State().Karma)
	return gob.NewEncoder(w).Encode(&snap)
}

// restoreFromSnapshot rebuilds an estimator from a decoded snapshot and
// maintenance state st, bound to tab and optionally placed on dev. It is
// shared by Load (gob stream, where st holds only the karma scores) and
// RestoreCheckpoint (framed, CRC-checked checkpoint file).
func restoreFromSnapshot(snap snapshot, st sample.State, tab *table.Table, dev *gpu.Device) (*Estimator, error) {
	if tab == nil {
		return nil, errors.New("core: nil table")
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", snap.Version)
	}
	if snap.Dims != tab.Dims() {
		return nil, fmt.Errorf("core: snapshot has %d dims, table has %d", snap.Dims, tab.Dims())
	}
	if len(snap.Sample) == 0 || len(snap.Sample)%snap.Dims != 0 {
		return nil, errors.New("core: snapshot sample is malformed")
	}
	kern, ok := kernel.ByName(snap.KernelName)
	if !ok {
		return nil, fmt.Errorf("core: unknown kernel %q in snapshot", snap.KernelName)
	}
	lf, ok := loss.ByName(snap.LossName)
	if !ok {
		return nil, fmt.Errorf("core: unknown loss %q in snapshot", snap.LossName)
	}
	kl := lf
	if snap.KarmaLoss != "" {
		if kl, ok = loss.ByName(snap.KarmaLoss); !ok {
			return nil, fmt.Errorf("core: unknown karma loss %q in snapshot", snap.KarmaLoss)
		}
	}

	e := newEstimator(tab, Config{
		Mode:       Mode(snap.Mode),
		SampleSize: len(snap.Sample) / snap.Dims,
		Kernel:     kern,
		Loss:       lf,
		Device:     dev,
		Learner:    snap.LearnerCfg,
		Karma: sample.KarmaConfig{
			Max:        snap.KarmaCfg.Max,
			Threshold:  snap.KarmaCfg.Threshold,
			NoScale:    snap.KarmaCfg.NoScale,
			NoShortcut: snap.KarmaCfg.NoShortcut,
			Loss:       kl,
		},
		Seed: snap.Seed,
	})
	e.maint.Restore(snap.Seed, st)
	e.s, e.src = e.cfg.SampleSize, e.maint.Src
	e.replacements = snap.Replacements
	e.queries.Store(int64(snap.Queries))
	if err := e.place(snap.Sample, snap.Bandwidth, dev); err != nil {
		return nil, err
	}
	if err := e.adapt(snap.Maintained, &st); err != nil {
		return nil, err
	}
	return e, nil
}

// Load reconstructs a saved estimator bound to tab (which supplies future
// replacement rows and change notifications) and, when dev is non-nil,
// places the model on that device. The saved sample is reinstated verbatim
// rather than redrawn, so estimates are identical to the saved model's.
func Load(r io.Reader, tab *table.Table, dev *gpu.Device) (*Estimator, error) {
	if tab == nil {
		return nil, errors.New("core: nil table")
	}
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	return restoreFromSnapshot(snap, sample.State{Karma: snap.KarmaScores}, tab, dev)
}
