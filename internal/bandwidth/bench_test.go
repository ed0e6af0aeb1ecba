package bandwidth

import (
	"math/rand"
	"testing"

	"kdesel/internal/datagen"
	"kdesel/internal/metrics"
	"kdesel/internal/table"
	"kdesel/internal/workload"
)

// BenchmarkOptimalProbeShape times one Batch build of the shape the
// end-to-end benchmark's probe-d2 models have: the default OptimalConfig
// (exact erf, serial) over a 256-point d=2 sample of a clustered table,
// trained on 100 DT feedbacks. evals/op is the objective evaluations per
// build, so a change in time can be told apart from a change in the
// optimiser's path.
func BenchmarkOptimalProbeShape(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ds := datagen.Synthetic(rng, 16_000, 2, 10, 0.1)
	tab, err := table.New(2)
	if err != nil {
		b.Fatal(err)
	}
	if err := tab.InsertMany(ds.Rows); err != nil {
		b.Fatal(err)
	}
	qs, err := workload.Generate(tab, workload.DT, 100, workload.Config{}, rng)
	if err != nil {
		b.Fatal(err)
	}
	fbs, err := workload.TrueSelectivities(tab, qs)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]float64, 0, 2*256)
	for _, i := range rng.Perm(len(ds.Rows))[:256] {
		data = append(data, ds.Rows[i]...)
	}
	met := metrics.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimal(data, 2, fbs, OptimalConfig{Metrics: met}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(met.Counter("bandwidth.objective_evals").Value())/float64(b.N), "evals/op")
}
