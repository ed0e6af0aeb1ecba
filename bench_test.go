// Benchmarks regenerating every table and figure of the paper's evaluation
// (scaled down so one benchmark iteration stays in the seconds range), plus
// micro-benchmarks of the performance-critical kernels. The custom metric
// "err/op" reports the median estimation error an iteration observed, so
// quality regressions surface alongside runtime regressions.
package kdesel_test

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"kdesel/internal/core"
	"kdesel/internal/datagen"
	"kdesel/internal/experiments"
	"kdesel/internal/gpu"
	"kdesel/internal/kde"
	"kdesel/internal/loss"
	"kdesel/internal/mathx"
	"kdesel/internal/metrics"
	"kdesel/internal/parallel"
	"kdesel/internal/query"
	"kdesel/internal/sample"
	"kdesel/internal/stholes"
	"kdesel/internal/table"
	"kdesel/internal/workload"
)

// --- Experiment benchmarks: one per table/figure --------------------------

func qualityBenchConfig(dims int, seed int64) experiments.QualityConfig {
	return experiments.QualityConfig{
		Dims:         dims,
		Datasets:     []string{"synthetic", "forest"},
		Workloads:    []workload.Kind{workload.DT, workload.UV},
		Rows:         1500,
		TrainQueries: 20,
		TestQueries:  30,
		Repetitions:  2,
		Seed:         seed,
	}
}

func medianOfCells(res *experiments.QualityResult) float64 {
	sum, n := 0.0, 0
	for _, c := range res.Cells {
		sum += c.Summary.Median
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BenchmarkFigure4 regenerates the 3-D static-quality experiment (§6.2).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Quality(qualityBenchConfig(3, int64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(medianOfCells(res), "err/op")
	}
}

// BenchmarkFigure5 regenerates the 8-D static-quality experiment (§6.2).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Quality(qualityBenchConfig(8, int64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(medianOfCells(res), "err/op")
	}
}

// BenchmarkTable1 regenerates the pairwise win matrix from paired 3-D and
// 8-D quality runs.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r3, err := experiments.Quality(qualityBenchConfig(3, int64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		r8, err := experiments.Quality(qualityBenchConfig(8, int64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		m, err := experiments.ComputeWinMatrix(r3, r8)
		if err != nil {
			b.Fatal(err)
		}
		// Report Batch's win rate over Heuristic — the headline number.
		for r, name := range m.Estimators {
			if name != "Batch" {
				continue
			}
			for c, other := range m.Estimators {
				if other == "Heuristic" {
					b.ReportMetric(m.Percent[r][c], "batch-beats-heuristic-%")
				}
			}
		}
	}
}

// BenchmarkFigure6 regenerates the model-size sweep (§6.3).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ModelSize(experiments.ModelSizeConfig{
			Sizes:        []int{512, 2048},
			Estimators:   []string{"Heuristic", "Batch"},
			Rows:         6000,
			TrainQueries: 20,
			TestQueries:  30,
			Repetitions:  2,
			Seed:         int64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.Summary.Median, "err/op")
	}
}

// BenchmarkFigure7 regenerates the runtime sweep (§6.4) on the simulated
// devices.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Runtime(experiments.RuntimeConfig{
			Sizes:   []int{1024, 16384},
			Queries: 15,
			Rows:    20000,
			Seed:    int64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			if p.Estimator == "Heuristic" && p.Device == "gpu" && p.Size == 16384 {
				b.ReportMetric(float64(p.PerQuery.Nanoseconds()), "gpu-ns/query")
			}
		}
	}
}

// BenchmarkFigure8 regenerates the changing-data experiment (§6.5).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Changing(experiments.ChangingConfig{
			Dims:        3,
			Estimators:  []string{"Heuristic", "Adaptive"},
			Repetitions: 1,
			Evolving: workload.EvolvingConfig{
				Dims: 3, Cycles: 3, InitialTuples: 1500,
				TuplesPerCluster: 500, QueriesPerCycle: 30,
			},
			Seed: int64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if final, ok := res.FinalError("Adaptive", 2); ok {
			b.ReportMetric(final, "err/op")
		}
	}
}

// BenchmarkWorkloadShift regenerates the workload-change extension
// experiment (§4.1 motivation, evaluated in this repo beyond the paper).
func BenchmarkWorkloadShift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.WorkloadShift(experiments.WorkloadShiftConfig{
			Rows:            2500,
			QueriesPerPhase: 100,
			SampleSize:      256,
			Window:          25,
			Repetitions:     1,
			Seed:            int64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if final, ok := res.WindowError("Adaptive", len(res.QueryIndex)-1); ok {
			b.ReportMetric(final, "err/op")
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §5) ------------------------------------

func ablationBenchConfig(seed int64) experiments.AblationConfig {
	return experiments.AblationConfig{
		Rows: 2000, TrainQueries: 20, TestQueries: 25,
		Repetitions: 2, SampleSize: 128, Seed: seed,
	}
}

func runAblationBench(b *testing.B, fn func(experiments.AblationConfig) (*experiments.AblationResult, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := fn(ablationBenchConfig(int64(i) + 1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[len(res.Rows)-1].Summary.Median, "err/op")
	}
}

func BenchmarkAblationLogUpdates(b *testing.B) {
	runAblationBench(b, experiments.AblationLogUpdates)
}

func BenchmarkAblationBatchSize(b *testing.B) {
	runAblationBench(b, experiments.AblationMiniBatch)
}

func BenchmarkAblationGlobal(b *testing.B) {
	runAblationBench(b, experiments.AblationGlobal)
}

func BenchmarkAblationKernel(b *testing.B) {
	runAblationBench(b, experiments.AblationKernel)
}

func BenchmarkAblationKarma(b *testing.B) {
	runAblationBench(b, func(cfg experiments.AblationConfig) (*experiments.AblationResult, error) {
		cfg.Dims = 3
		return experiments.AblationKarma(cfg)
	})
}

// --- Micro-benchmarks of the hot paths -------------------------------------

func benchEstimatorAndQueries(b *testing.B, d, s int) (*kde.Estimator, []query.Range) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	flat := make([]float64, s*d)
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	e, err := kde.New(d, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.SetSampleFlat(flat); err != nil {
		b.Fatal(err)
	}
	if err := e.SetBandwidth(kde.ScottBandwidth(flat, d)); err != nil {
		b.Fatal(err)
	}
	qs := make([]query.Range, 64)
	for i := range qs {
		lo := make([]float64, d)
		hi := make([]float64, d)
		for j := 0; j < d; j++ {
			c, w := rng.NormFloat64(), 0.2+rng.Float64()
			lo[j], hi[j] = c-w, c+w
		}
		qs[i] = query.Range{Lo: lo, Hi: hi}
	}
	return e, qs
}

// BenchmarkKDEEstimate measures one selectivity estimate on an 8-D model
// with 4096 sample points (the host math behind Figures 4–7).
func BenchmarkKDEEstimate(b *testing.B) {
	e, qs := benchEstimatorAndQueries(b, 8, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Selectivity(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectivityBatch measures a 64-query batched estimate pass on
// the 8-D, 4096-point model — the serving path's unit of work. The generic
// variant forces the pre-PR row-major query-at-a-time inner loops; fused is
// the columnar tiled layout with hoisted scalings, in both erf modes; the
// float32 variant reads the compressed columnar tier. The
// serving-path criteria compare fused/fast against generic/exact and
// fused/float32 against fused/fast. Each variant reports bytes/query (the
// sample bytes one query streams: rows × dims × element size) and
// queries/op, from which cmd/benchjson derives effective bandwidth.
func BenchmarkSelectivityBatch(b *testing.B) {
	const d, s = 8, 4096
	for _, v := range []struct {
		name    string
		generic bool
		mode    mathx.Mode
		prec    mathx.Precision
	}{
		{"generic-exact", true, mathx.Exact, mathx.Float64},
		{"fused-exact", false, mathx.Exact, mathx.Float64},
		{"fused-fast", false, mathx.Fast, mathx.Float64},
		{"fused-float32", false, mathx.Fast, mathx.Float32},
	} {
		b.Run(v.name, func(b *testing.B) {
			e, qs := benchEstimatorAndQueries(b, d, s)
			e.ForceGenericLayout(v.generic)
			e.SetPrecision(v.prec)
			mathx.SetMode(v.mode)
			defer mathx.SetMode(mathx.Exact)
			ests := make([]float64, len(qs))
			bytesPerQuery := float64(s * d * v.prec.ElementSize())
			b.SetBytes(int64(len(qs)) * int64(bytesPerQuery))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.SelectivityBatch(qs, ests); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(bytesPerQuery, "bytes/query")
			b.ReportMetric(float64(len(qs)), "queries/op")
		})
	}
}

// BenchmarkServeThroughput measures end-to-end serving throughput with
// closed-loop concurrent clients (each issues its next query the moment the
// previous answer returns) against the coalescing server at default
// settings. The coalescer is work-conserving: it never waits to fill a
// batch, so a lone client is served at once, and requests that queue while
// an evaluation runs share the next one (one fused sample traversal for
// all of them). One client already keeps a CPU busy, so qps need not grow
// with the client count: on a 2-vCPU host it is roughly flat from 1 to 16
// clients (815 → 1046 → 990), while concurrency shows up as batches of
// more than one request.
func BenchmarkServeThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	const d, s = 8, 4096
	ds := datagen.Synthetic(rng, s+1000, d, 10, 0.1)
	tab, _ := table.New(d)
	if err := tab.InsertMany(ds.Rows); err != nil {
		b.Fatal(err)
	}
	for _, clients := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			est, err := core.Build(tab, core.Config{Mode: core.Heuristic, SampleSize: s, Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			srv := core.NewServer(est, core.ServeConfig{})
			defer srv.Close()
			const perClient = 16
			streams := make([][]query.Range, clients)
			for c := range streams {
				qrng := rand.New(rand.NewSource(int64(100 + c)))
				qs := make([]query.Range, perClient)
				for i := range qs {
					lo := make([]float64, d)
					hi := make([]float64, d)
					for j := 0; j < d; j++ {
						cen, w := qrng.NormFloat64(), 0.2+qrng.Float64()
						lo[j], hi[j] = cen-w, cen+w
					}
					qs[i] = query.Range{Lo: lo, Hi: hi}
				}
				streams[c] = qs
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					qs := streams[c]
					wg.Add(1)
					go func() {
						defer wg.Done()
						for _, q := range qs {
							if _, err := srv.Estimate(q); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			total := float64(b.N) * float64(clients) * perClient
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(total/sec, "qps")
			}
		})
	}
}

// BenchmarkAnalyzeUnderLoad measures the estimate-latency tail while an
// ANALYZE (Reoptimize) pass runs concurrently, comparing the serialized
// baseline (every estimate queues behind the writer mutex for the whole
// re-optimization) against snapshot-isolated serving (estimates keep reading
// the pre-ANALYZE model lock-free). The acceptance criterion for snapshot
// isolation is serialized p99 / snapshot p99 ≥ 10 inside ANALYZE windows.
func BenchmarkAnalyzeUnderLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AnalyzeUnderLoad(experiments.AnalyzeLoadConfig{
			Dims:       4,
			SampleSize: 4096,
			Clients:    8,
			Feedback:   150,
			Rounds:     2,
			Seed:       int64(41 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Serialized.P99.Seconds()*1e3, "serialized-p99-ms")
		b.ReportMetric(res.Snapshot.P99.Seconds()*1e3, "snapshot-p99-ms")
		b.ReportMetric(res.Speedup, "p99-speedup")
	}
}

// BenchmarkNetworkResilience drives the HTTP frontend over a real loopback
// listener at 6× overload, fault-free and then under the chaos schedule
// (injected latency, 5xx, and connection drops). The acceptance criteria:
// shed-p50/accepted-p50 < 0.10 (rejections are the fast path), chaos
// accepted p99 ≤ 2× the no-fault baseline p99 (bounded tail), and
// accounting-exact == 1 (accepted + shed + failed == issued, with client-
// and server-side counters agreeing exactly).
func BenchmarkNetworkResilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Network(experiments.NetworkConfig{
			Seed: int64(71 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Baseline.AcceptedP99.Seconds()*1e3, "baseline-p99-ms")
		b.ReportMetric(res.Chaos.AcceptedP99.Seconds()*1e3, "chaos-p99-ms")
		b.ReportMetric(res.P99Ratio, "p99-ratio")
		b.ReportMetric(res.Chaos.ShedP50.Seconds()*1e6, "shed-p50-us")
		b.ReportMetric(res.ShedRatio, "shed-p50-ratio")
		exact := 0.0
		if res.AccountingExact {
			exact = 1.0
		}
		b.ReportMetric(exact, "accounting-exact")
		b.ReportMetric(float64(res.Chaos.Drops+res.Chaos.Errors5xx+res.Chaos.Delays), "faults-injected")
	}
}

// BenchmarkRegistryMixedTraffic drives the multi-model registry the way one
// process serves a whole schema: eight single-table models plus one join
// model behind one registry, skewed closed-loop traffic, and a mid-run
// ANALYZE plus eviction on two of the models. "other-p99-ratio" is the
// isolation figure — the worst during-ANALYZE / quiescent p99 over models
// that were not the lifecycle targets (≤ 2 expected); "qps" aggregates all
// models' served estimates over the measured window.
func BenchmarkRegistryMixedTraffic(b *testing.B) {
	totalServed := 0
	var last *experiments.RegistryLoadResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RegistryLoad(experiments.RegistryLoadConfig{
			Models:     8,
			JoinModel:  true,
			Rows:       1500,
			SampleSize: 192,
			Clients:    6,
			Duration:   400 * time.Millisecond,
			Feedback:   96,
			MaxBatch:   4,
			Seed:       int64(61 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range res.Stats {
			totalServed += st.Served
		}
		last = res
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(totalServed)/sec, "qps")
	}
	b.ReportMetric(last.MaxOtherRatio, "other-p99-ratio")
	b.ReportMetric(float64(last.Evictions), "evictions")
	b.ReportMetric(float64(last.Restores), "restores")
}

// BenchmarkKDEGradient measures one estimate-plus-gradient pass (eq. 17),
// the adaptive estimator's per-query extra work.
func BenchmarkKDEGradient(b *testing.B) {
	e, qs := benchEstimatorAndQueries(b, 8, 4096)
	grad := make([]float64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SelectivityGradient(qs[i%len(qs)], grad); err != nil {
			b.Fatal(err)
		}
	}
}

// benchObjectiveInputs builds the |S|=16K training setup the objective
// benchmarks share: a Scott-rule bandwidth and 16 synthetic feedbacks.
func benchObjectiveInputs(b *testing.B, d int) (flat, h []float64, fbs []query.Feedback) {
	b.Helper()
	const s = 16384
	rng := rand.New(rand.NewSource(21))
	flat = make([]float64, s*d)
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	h = kde.ScottBandwidth(flat, d)
	fbs = make([]query.Feedback, 16)
	for i := range fbs {
		lo := make([]float64, d)
		hi := make([]float64, d)
		for j := 0; j < d; j++ {
			c, w := rng.NormFloat64(), 0.2+rng.Float64()
			lo[j], hi[j] = c-w, c+w
		}
		fbs[i] = query.Feedback{Query: query.Range{Lo: lo, Hi: hi}, Actual: rng.Float64() * 0.3}
	}
	return flat, h, fbs
}

// BenchmarkObjective measures one value+gradient evaluation of the batch
// bandwidth-optimization objective using the query-at-a-time baseline: each
// feedback query traverses the full 16K-point sample on its own.
func BenchmarkObjective(b *testing.B) {
	for _, d := range []int{4, 8} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			flat, h, fbs := benchObjectiveInputs(b, d)
			obj := kde.Objective(flat, d, nil, fbs, loss.Quadratic{})
			grad := make([]float64, d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				obj(h, grad)
			}
		})
	}
}

// BenchmarkObjectiveInstrumented measures the same evaluation with a live
// metrics registry wrapped around the objective exactly as bandwidth.Optimal
// wires it; the per-evaluation cost is two atomic counter increments and
// must stay within noise (<5%) of BenchmarkObjective.
func BenchmarkObjectiveInstrumented(b *testing.B) {
	for _, d := range []int{4, 8} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			flat, h, fbs := benchObjectiveInputs(b, d)
			base := kde.Objective(flat, d, nil, fbs, loss.Quadratic{})
			reg := metrics.New()
			evals := reg.Counter("bandwidth.objective_evals")
			gradEvals := reg.Counter("bandwidth.gradient_evals")
			obj := func(x, g []float64) float64 {
				evals.Inc()
				if g != nil {
					gradEvals.Inc()
				}
				return base(x, g)
			}
			grad := make([]float64, d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				obj(h, grad)
			}
		})
	}
}

// BenchmarkObjectiveBatch measures the same evaluation through the batched
// single-traversal objective at several worker-pool sizes (results are
// bit-identical to BenchmarkObjective's at every setting).
func BenchmarkObjectiveBatch(b *testing.B) {
	for _, d := range []int{4, 8} {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("d=%d/workers=%d", d, w), func(b *testing.B) {
				flat, h, fbs := benchObjectiveInputs(b, d)
				obj := kde.ObjectiveBatch(flat, d, nil, fbs, loss.Quadratic{}, parallel.PoolFor(w))
				grad := make([]float64, d)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					obj(h, grad)
				}
			})
		}
	}
}

// BenchmarkKarmaUpdate measures one karma maintenance pass over 4096
// contributions (eqs. 6–8).
func BenchmarkKarmaUpdate(b *testing.B) {
	const s = 4096
	k, err := sample.NewKarma(s, sample.KarmaConfig{Loss: loss.Absolute{}})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	contrib := make([]float64, s)
	for i := range contrib {
		contrib[i] = rng.Float64() * 0.1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Update(contrib, 0.05, 0.04, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSTHolesEstimate measures one histogram estimate after training.
func BenchmarkSTHolesEstimate(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	ds := datagen.Synthetic(rng, 5000, 3, 5, 0.1)
	tab, _ := table.New(3)
	if err := tab.InsertMany(ds.Rows); err != nil {
		b.Fatal(err)
	}
	bounds, _ := tab.Bounds()
	hist, err := stholes.New(3, bounds, float64(tab.Len()), 100)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := workload.Generate(tab, workload.DT, 64, workload.Config{}, rng)
	if err != nil {
		b.Fatal(err)
	}
	oracle := func(r query.Range) (float64, error) {
		c, err := tab.Count(r)
		return float64(c), err
	}
	for _, q := range qs {
		if err := hist.Refine(q, oracle); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hist.EstimateCount(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceEstimate measures one accounted device-side estimate
// (simulated GPU) including the contribution kernel and reduction.
func BenchmarkDeviceEstimate(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	const d, s = 8, 4096
	flat := make([]float64, s*d)
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	dev, err := gpu.NewDevice(gpu.GTX460())
	if err != nil {
		b.Fatal(err)
	}
	eng, err := gpu.NewEngine(dev, d, nil, flat)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.ScottBandwidth(); err != nil {
		b.Fatal(err)
	}
	q := query.NewRange(
		[]float64{-1, -1, -1, -1, -1, -1, -1, -1},
		[]float64{1, 1, 1, 1, 1, 1, 1, 1},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Estimate(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildAdaptive measures full estimator construction (ANALYZE +
// Scott initialization) over a 10K-row table.
func BenchmarkBuildAdaptive(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	ds := datagen.Synthetic(rng, 10000, 5, 5, 0.1)
	tab, _ := table.New(5)
	if err := tab.InsertMany(ds.Rows); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(tab, core.Config{
			Mode: core.Adaptive, SampleSize: 1024, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedEstimate runs the shard-isolation experiment (see
// internal/experiments/shard.go): a K=4 sharded group serves closed-loop
// scatter/gather traffic through alternating quiescent legs (dry-run
// bandwidth optimizations, load-matched, results discarded) and churn
// legs (real ANALYZEs on one shard). Each round pairs a churn leg's
// gather p99 against the immediately preceding quiescent leg's;
// during-p99-ratio is the median paired ratio across every round of
// every iteration (≤ 2 required: per-shard locks keep the lock-free
// gather path unstalled). The pairing and the median are both
// load-bearing on a shared 1-vCPU host: hypervisor steal arrives in
// ~100ms bursts that land inside a single leg, so a sequential
// two-phase design measured the host, not the locks — a null experiment
// with identical work in both phases still swung from 0.8 to 6 — while
// a wrecked round here moves one ratio the median then discards.
func BenchmarkShardedEstimate(b *testing.B) {
	totalServed := 0
	duringN := 0
	var ratios []float64
	var last *experiments.ShardLoadResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.ShardLoad(experiments.ShardLoadConfig{
			Shards:     4,
			Rows:       3000,
			SampleSize: 1024,
			Clients:    2,
			Duration:   300 * time.Millisecond,
			Rounds:     3,
			Feedback:   16,
			Seed:       int64(71 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		totalServed += res.Served
		duringN += res.DuringN
		ratios = append(ratios, res.RoundRatios...)
		last = res
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(totalServed)/sec, "qps")
	}
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		b.ReportMetric(ratios[len(ratios)/2], "during-p99-ratio")
		b.ReportMetric(float64(len(ratios)), "rounds")
	}
	b.ReportMetric(float64(last.Config.Shards), "shards")
	b.ReportMetric(float64(duringN), "during-samples")
}

// BenchmarkIngestServing runs the continuous-ingestion experiment (see
// internal/experiments/ingest.go): an unsharded adaptive model serves
// closed-loop estimate traffic while the change feed replays an evolving
// mutation stream through the bounded-lag bridge. Rounds pair each churn
// leg's estimate p99 against the adjacent quiescent leg's (same
// median-of-paired-ratios design as BenchmarkShardedEstimate, for the
// same 1-vCPU steal reasons); during-p99-ratio <= 2 is the acceptance
// bar. Exactly-once delivery is asserted inside each iteration (cursor ==
// produced == applied after the ring drains), and the untimed drift
// phase after the timed rounds must schedule at least one background
// ANALYZE from the detector.
func BenchmarkIngestServing(b *testing.B) {
	totalServed := 0
	duringN := 0
	var applied, saved, analyzes int64
	var ratios []float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.IngestLoad(experiments.IngestLoadConfig{
			Rows:       2000,
			SampleSize: 512,
			Clients:    2,
			Duration:   300 * time.Millisecond,
			Rounds:     3,
			Rate:       3000,
			Seed:       int64(71 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Cursor != uint64(res.Produced) || res.Applied != int64(res.Produced) {
			b.Fatalf("exactly-once violated: produced %d, applied %d, cursor %d",
				res.Produced, res.Applied, res.Cursor)
		}
		if res.DriftAnalyzes == 0 {
			b.Fatalf("drift detector never scheduled an ANALYZE (%d triggers)",
				res.DriftTriggers)
		}
		totalServed += res.Served
		duringN += res.DuringN
		applied += res.Applied
		saved += res.RepublishSaved
		analyzes += res.DriftAnalyzes
		ratios = append(ratios, res.RoundRatios...)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(totalServed)/sec, "qps")
		b.ReportMetric(float64(applied)/sec, "mut/s")
	}
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		b.ReportMetric(ratios[len(ratios)/2], "during-p99-ratio")
	}
	b.ReportMetric(float64(duringN), "during-samples")
	b.ReportMetric(float64(saved), "republish-saved")
	b.ReportMetric(float64(analyzes), "drift-analyzes")
}
