package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"

	"kdesel/internal/gpu"
	"kdesel/internal/kde"
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
}

// karmaCfgSnapshot mirrors sample.KarmaConfig without the non-serializable
// loss function (carried by name in LossName).
type karmaCfgSnapshot struct {
	Max        float64
	Threshold  float64
	NoScale    bool
	NoShortcut bool
}

// makeSnapshot captures the estimator's model state around the given
// host-resident copy of the sample.
func (e *Estimator) makeSnapshot(flat []float64) snapshot {
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
	if e.maint.Karma != nil {
		snap.KarmaScores = e.maint.Karma.Scores()
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
	snap := e.makeSnapshot(flat)
	return gob.NewEncoder(w).Encode(&snap)
}

// restoreFromSnapshot rebuilds an estimator from a decoded snapshot, bound
// to tab and optionally placed on dev. It is shared by Load (gob stream)
// and RestoreCheckpoint (framed, CRC-checked checkpoint file).
func restoreFromSnapshot(snap snapshot, tab *table.Table, dev *gpu.Device) (*Estimator, error) {
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

	src := sample.NewCountingSource(snap.Seed + 1)
	rng := rand.New(src)
	e := &Estimator{
		cfg: Config{
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
				Loss:       lf,
			},
			Seed: snap.Seed,
		},
		tab:          tab,
		d:            snap.Dims,
		s:            len(snap.Sample) / snap.Dims,
		kern:         kern,
		rng:          rng,
		src:          src,
		maint:        sample.Maintainer{Rng: rng},
		replacements: snap.Replacements,
		tuner:        tuner{lf: lf},
	}
	e.bindTuner()
	e.queries.Store(int64(snap.Queries))

	var err error
	if dev != nil {
		e.eng, err = gpu.NewEngine(dev, e.d, kern, snap.Sample)
		if err != nil {
			return nil, err
		}
		if err := e.eng.SetBandwidth(snap.Bandwidth); err != nil {
			return nil, err
		}
		e.hostMirror = append([]float64(nil), snap.Sample...)
	} else {
		e.host, err = kde.New(e.d, kern)
		if err != nil {
			return nil, err
		}
		if err := e.host.SetSampleFlat(snap.Sample); err != nil {
			return nil, err
		}
		if err := e.host.SetBandwidth(snap.Bandwidth); err != nil {
			return nil, err
		}
	}

	if e.cfg.Mode == Adaptive {
		e.learn, err = learner.NewRMSprop(e.d, e.cfg.Learner)
		if err != nil {
			return nil, err
		}
		if snap.Maintained {
			e.maint.Karma, err = sample.NewKarma(e.s, e.cfg.Karma)
			if err != nil {
				return nil, err
			}
			if snap.KarmaScores != nil {
				if err := e.maint.Karma.RestoreScores(snap.KarmaScores); err != nil {
					return nil, err
				}
			}
			e.maint.Res, err = sample.NewReservoir(e.s, tab.Len(), e.rng)
			if err != nil {
				return nil, err
			}
			tab.Subscribe(e)
		}
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
	return restoreFromSnapshot(snap, tab, dev)
}
