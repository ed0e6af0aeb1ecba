package shard

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"kdesel/internal/checkpoint"
	"kdesel/internal/core"
	"kdesel/internal/learner"
)

// frameContents is the model a hand-built checkpoint frame carries: a
// row-major sample of d-dimensional points, a bandwidth and karma scores.
type frameContents struct {
	d      int
	sample []float64
	h      []float64
	karma  []float64
}

// coreFrame mirrors the fields of the serving core's checkpoint payload
// that a restore needs; gob matches fields by name.
type coreFrame struct {
	Snap struct {
		Version     int
		Mode        int
		Dims        int
		Sample      []float64
		Bandwidth   []float64
		KernelName  string
		LossName    string
		Maintained  bool
		KarmaScores []float64
	}
}

// restoreCoreFrame writes c as a CRC-valid core checkpoint frame and
// restores an Adaptive, maintained estimator from it.
func restoreCoreFrame(t *testing.T, c frameContents) error {
	var fr coreFrame
	fr.Snap.Version, fr.Snap.Mode, fr.Snap.Dims = 1, int(core.Adaptive), c.d
	fr.Snap.Sample, fr.Snap.Bandwidth, fr.Snap.KarmaScores = c.sample, c.h, c.karma
	fr.Snap.KernelName, fr.Snap.LossName, fr.Snap.Maintained = "gaussian", "quadratic", true
	path := filepath.Join(t.TempDir(), "core.ckpt")
	if err := checkpoint.WriteFileMeta(path, &fr, 0, nil); err != nil {
		t.Fatal(err)
	}
	tab := testTable(t, 600, c.d, 7)
	e, err := core.RestoreCheckpoint(path, tab, nil)
	if err == nil {
		e.Detach()
	}
	return err
}

// restoreGroupFrames writes c as a CRC-valid two-shard group checkpoint;
// sample values beyond the last whole point ride in the last shard frame.
func restoreGroupFrames(t *testing.T, c frameContents) error {
	const k = 2
	whole := len(c.sample) / c.d * c.d
	parts := partition(c.sample[:whole], c.d, k)
	parts[k-1] = append(parts[k-1], c.sample[whole:]...)
	learn, err := learner.NewRMSprop(c.d, learner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := groupState{
		K: k, D: c.d, STotal: len(c.sample) / c.d, Seed: 1, H: c.h, Karma: c.karma,
		Learner: learn.State(),
	}
	f0, err := checkpoint.MarshalMeta(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{f0}
	for _, p := range parts {
		b, err := checkpoint.Marshal(shardFrame{Data: p})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, b)
	}
	path := filepath.Join(t.TempDir(), "group.ckpt")
	if err := checkpoint.WriteFileFrames(path, frames, nil); err != nil {
		t.Fatal(err)
	}
	g, err := Restore(path, testTable(t, 600, c.d, 7), Config{})
	if err == nil {
		g.Close()
	}
	return err
}

// TestHostileCheckpointFrames: frames that pass the CRC but carry hostile
// contents fail to restore with an error, never a panic, through both
// engines. The valid row proves the hand-built frames restore at all, so
// each other row fails for its own defect.
func TestHostileCheckpointFrames(t *testing.T) {
	const d, s = 2, 300
	tab := testTable(t, s, d, 3)
	good := func() frameContents {
		c := frameContents{d: d, h: []float64{0.4, 0.6}, karma: make([]float64, s)}
		for i := 0; i < s; i++ {
			c.sample = append(c.sample, tab.Row(i)...)
		}
		return c
	}
	cases := []struct {
		name string
		edit func(*frameContents)
	}{
		{"valid", func(*frameContents) {}},
		{"nan-karma", func(c *frameContents) { c.karma[7] = math.NaN() }},
		{"karma-length", func(c *frameContents) { c.karma = c.karma[:s-1] }},
		{"ragged-sample", func(c *frameContents) { c.sample = append(c.sample, 1) }},
		{"nan-bandwidth", func(c *frameContents) { c.h[1] = math.NaN() }},
	}
	engines := []struct {
		name    string
		restore func(*testing.T, frameContents) error
	}{
		{"core", restoreCoreFrame},
		{"group", restoreGroupFrames},
	}
	for _, tc := range cases {
		for _, eng := range engines {
			t.Run(tc.name+"/"+eng.name, func(t *testing.T) {
				c := good()
				tc.edit(&c)
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("panic: %v", r)
							t.Errorf("restore panicked: %v", r)
						}
					}()
					return eng.restore(t, c)
				}()
				if tc.name == "valid" {
					if err != nil {
						t.Fatalf("valid frame rejected: %v", err)
					}
					return
				}
				if err == nil {
					t.Fatal("hostile frame restored without an error")
				}
			})
		}
	}
}

// TestShardQueriesSurviveRestore: the estimated-query count rides in the
// group checkpoint, as it does in the serving core's.
func TestShardQueriesSurviveRestore(t *testing.T) {
	tab := testTable(t, 1200, 2, 17)
	g, err := Build(tab, Config{Shards: 2, SampleSize: 600, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, q := range testQueries(25, 2, 5) {
		if _, err := g.Estimate(q); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "queries.ckpt")
	if err := g.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(path, tab, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Queries(); got != 25 {
		t.Fatalf("restored group counts %d queries, want 25", got)
	}
}
