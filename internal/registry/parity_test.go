package registry

import (
	"testing"

	"kdesel/internal/core"
	"kdesel/internal/metrics"
)

// TestHealthAndCheckpointMetricsBothShapes: a sharded model reports its
// ladder position as core.health and counts core.checkpoints_written under
// its model namespace, the same names an unsharded model uses.
func TestHealthAndCheckpointMetricsBothShapes(t *testing.T) {
	for _, shape := range modelShapes {
		t.Run(shape.name, func(t *testing.T) {
			met := metrics.New()
			r := New(Config{CheckpointDir: t.TempDir(), Metrics: met})
			defer r.Close()
			key := NewKey("obs", 0, 1)
			if err := shape.admit(r, key, buildTable(t, 600, 2, 13), buildCfg(1), core.ServeConfig{MaxBatch: 1}); err != nil {
				t.Fatal(err)
			}
			if err := r.CheckpointNow(key); err != nil {
				t.Fatal(err)
			}
			snap := met.Snapshot()
			if h, ok := snap.Gauges[key.MetricPrefix()+"core.health"]; !ok || h != float64(core.Healthy) {
				t.Errorf("core.health = %v (registered %v), want %v", h, ok, float64(core.Healthy))
			}
			if n := snap.Counters[key.MetricPrefix()+"core.checkpoints_written"]; n != 1 {
				t.Errorf("core.checkpoints_written = %d, want 1", n)
			}
		})
	}
}
