package core

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"kdesel/internal/loss"
	"kdesel/internal/sample"
)

// TestRestoreKeepsKarmaLoss: a karma loss configured apart from the model
// loss survives checkpoint/restore and Save/Load, so the restored model
// scores the same karma and replaces the same points as the original.
func TestRestoreKeepsKarmaLoss(t *testing.T) {
	tab := buildClusteredTable(t, 300, 21)
	e, err := Build(tab, Config{Mode: Adaptive, SampleSize: 64, Seed: 11, Karma: sample.KarmaConfig{Loss: loss.Absolute{}}})
	if err != nil {
		t.Fatal(err)
	}
	driveFeedback(t, e, tab, 31, 57)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := e.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreCheckpoint(path, tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	l, err := Load(&buf, tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Estimator{"restored": r, "loaded": l} {
		if got := m.cfg.Karma.Loss; got != (loss.Absolute{}) {
			t.Errorf("%s karma loss = %T, want loss.Absolute", name, got)
		}
	}

	driveFeedback(t, e, tab, 61, 200)
	driveFeedback(t, r, tab, 61, 200)
	if e.Replacements() != r.Replacements() {
		t.Errorf("replacements: original %d, restored %d", e.Replacements(), r.Replacements())
	}
	if !reflect.DeepEqual(e.maint.Karma.Scores(), r.maint.Karma.Scores()) {
		t.Error("karma scores diverged after restore")
	}
}
