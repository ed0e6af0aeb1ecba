package shard

import (
	"math/rand"
	"testing"

	"kdesel/internal/mathx"
	"kdesel/internal/query"
	"kdesel/internal/table"
)

// TestShardEstimateClampedToUnitInterval: a query slivered into the far
// tail of a float32 fast-erf model sums to a hair below zero in the kernel;
// the gather clamps it into [0, 1] exactly like the serving core does.
func TestShardEstimateClampedToUnitInterval(t *testing.T) {
	prev := mathx.CurrentMode()
	mathx.SetMode(mathx.Fast)
	defer mathx.SetMode(prev)

	tab, err := table.New(1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 600; i++ {
		if err := tab.Insert([]float64{rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := Build(tab, Config{Shards: 2, SampleSize: 600, Seed: 1, Precision: mathx.Float32})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	q := query.NewRange([]float64{-3.9013512134552}, []float64{-3.901350975036621})
	est, err := g.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if est < 0 || est > 1 {
		t.Fatalf("estimate %g escapes [0, 1]", est)
	}
}
