// Command kdebench regenerates the paper's tables and figures (see
// DESIGN.md for the experiment index) and runs the design-choice ablations.
//
// Usage:
//
//	kdebench -exp fig4|fig5|table1|fig6|fig7|fig8|ablations|all [flags]
//
// Results print as the rows/series the paper reports. The -quick flag
// shrinks dataset sizes and repetition counts for a fast smoke run; the
// defaults run a faithful scaled-down version of the paper's protocol.
// -metrics-out writes an instrumentation snapshot (JSON) covering every
// estimator the run built; -cpuprofile/-memprofile write pprof profiles.
//
// SIGINT/SIGTERM stops cooperatively: training loops halt at the next
// feedback boundary, a final checkpoint is written when -checkpoint-dir is
// set, and profiles/metrics flush before the process exits with status 130.
// A second signal forces an immediate exit.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kdesel/internal/experiments"
	"kdesel/internal/mathx"
	"kdesel/internal/metrics"
	"kdesel/internal/workload"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment: fig4, fig5, table1, fig6, fig7, fig8, shift, serve, analyze, registry, shard, network, ingest, ablations, all")
		seed  = flag.Int64("seed", 42, "random seed")
		quick = flag.Bool("quick", false, "shrink sizes for a fast smoke run")
		rows  = flag.Int("rows", 0, "override dataset rows (0 = experiment default)")
		reps  = flag.Int("reps", 0, "override repetitions (0 = experiment default)")
		ests  = flag.String("estimators", "", "comma-separated estimator subset for fig4/fig5 "+
			"(STHoles, Heuristic, SCV, Batch, Adaptive, plus extras AVI, GenHist); empty = the paper's five")
		workers = flag.String("workers", "", "comma-separated host worker counts for fig7's real "+
			"wall-clock points (e.g. \"1,2,4,8\"; -1 = all CPUs); empty = simulated devices only")
		metricsOut = flag.String("metrics-out", "", "write an instrumentation snapshot (JSON) covering all estimators built during the run")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile (pprof) to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (pprof) to this file on exit")
		ckptDir    = flag.String("checkpoint-dir", "", "periodically checkpoint KDE estimator state into this directory (atomic, CRC-framed; see -checkpoint-every)")
		ckptEvery  = flag.Int("checkpoint-every", 50, "checkpoint period in training feedbacks (used with -checkpoint-dir)")
		serveBatch = flag.Int("serve-batch", 0, "serve experiment: max queries coalesced per evaluation (0 = default 64; 1 disables coalescing)")
		profServe  = flag.Bool("profile-serve", false, "label the serve scheduler goroutine in CPU profiles (pprof label kdesel_serve=batcher; combine with -cpuprofile)")
		regModels  = flag.Int("registry-models", 0, "registry experiment: single-table model count (0 = default 8)")
		shards     = flag.Int("shards", 0, "shard experiment: sample partition count K (0 = default 4)")
		erfMode    = flag.String("erf", "exact", "erf implementation for Gaussian kernels: exact (math.Erf) | fast (polynomial, |err| ≤ 1e-7)")
		precFlag   = flag.String("precision", "float64", "serve experiment: serving precision tier, float64 | float32 (float32 falls back to float64 if over its error contract)")
	)
	flag.Parse()
	if m, ok := mathx.ParseMode(*erfMode); ok {
		mathx.SetMode(m)
	} else {
		fmt.Fprintf(os.Stderr, "kdebench: bad -erf %q (want exact or fast)\n", *erfMode)
		os.Exit(2)
	}
	prec, ok := mathx.ParsePrecision(*precFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "kdebench: bad -precision %q (want float64 or float32)\n", *precFlag)
		os.Exit(2)
	}
	ckpts := experiments.CheckpointConfig{Dir: *ckptDir, Every: *ckptEvery}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "kdebench: creating checkpoint dir: %v\n", err)
			os.Exit(1)
		}
	}
	var estimators []string
	if *ests != "" {
		for _, name := range strings.Split(*ests, ",") {
			estimators = append(estimators, strings.TrimSpace(name))
		}
	}
	var hostWorkers []int
	if *workers != "" {
		for _, field := range strings.Split(*workers, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil {
				fmt.Fprintf(os.Stderr, "kdebench: bad -workers entry %q: %v\n", field, err)
				os.Exit(2)
			}
			hostWorkers = append(hostWorkers, w)
		}
	}

	// A nil registry keeps every instrument a no-op; experiments share one
	// registry so the snapshot covers everything the run built.
	var reg *metrics.Registry
	if *metricsOut != "" {
		reg = metrics.New()
	}
	var cpuFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kdebench: creating cpu profile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "kdebench: starting cpu profile: %v\n", err)
			os.Exit(1)
		}
		cpuFile = f
	}
	// finish flushes profiles and the metrics snapshot; it also runs on the
	// error path so a failed experiment still leaves its artifacts behind.
	finish := func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			cpuFile = nil
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "kdebench: creating mem profile: %v\n", err)
				return
			}
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "kdebench: writing mem profile: %v\n", err)
			}
			f.Close()
		}
		if reg != nil {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "kdebench: creating metrics file: %v\n", err)
				return
			}
			if err := reg.WriteJSON(f); err != nil {
				fmt.Fprintf(os.Stderr, "kdebench: writing metrics: %v\n", err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "metrics written to %s\n", *metricsOut)
		}
	}

	// First SIGINT/SIGTERM raises the cooperative interrupt flag so training
	// loops stop at a feedback boundary with a final checkpoint written; a
	// second signal forces an immediate exit.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "kdebench: %v: stopping at next feedback boundary (send again to force exit)\n", sig)
		experiments.Interrupt()
		sig = <-sigCh
		fmt.Fprintf(os.Stderr, "kdebench: %v again: forcing exit\n", sig)
		os.Exit(130)
	}()

	run := func(name string, fn func() error) {
		start := time.Now()
		fmt.Printf("==> %s\n", name)
		if err := fn(); err != nil {
			if errors.Is(err, experiments.ErrInterrupted) {
				// Interrupted runs still flush their artifacts — the final
				// checkpoint is already on disk, so a rerun resumes from it.
				fmt.Fprintf(os.Stderr, "kdebench: %s: interrupted; flushing artifacts\n", name)
				finish()
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "kdebench: %s: %v\n", name, err)
			finish()
			os.Exit(1)
		}
		fmt.Printf("<== %s done in %s\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	qualityCfg := func(dims int) experiments.QualityConfig {
		cfg := experiments.QualityConfig{
			Dims: dims, Seed: *seed, Rows: *rows, Repetitions: *reps,
			Estimators: estimators, Metrics: reg, Checkpoints: ckpts,
		}
		if *quick {
			cfg.Rows = pick(*rows, 2000)
			cfg.Repetitions = pick(*reps, 3)
			cfg.TrainQueries = 30
			cfg.TestQueries = 60
		} else {
			cfg.Rows = pick(*rows, 8000)
			cfg.Repetitions = pick(*reps, 5)
		}
		return cfg
	}

	var fig4Res, fig5Res *experiments.QualityResult

	runFig4 := func() error {
		var err error
		fig4Res, err = experiments.Quality(qualityCfg(3))
		if err != nil {
			return err
		}
		fig4Res.WriteTable(os.Stdout)
		return nil
	}
	runFig5 := func() error {
		var err error
		fig5Res, err = experiments.Quality(qualityCfg(8))
		if err != nil {
			return err
		}
		fig5Res.WriteTable(os.Stdout)
		return nil
	}
	runTable1 := func() error {
		if fig4Res == nil {
			if err := runFig4(); err != nil {
				return err
			}
		}
		if fig5Res == nil {
			if err := runFig5(); err != nil {
				return err
			}
		}
		m, err := experiments.ComputeWinMatrix(fig4Res, fig5Res)
		if err != nil {
			return err
		}
		m.WriteTable(os.Stdout)
		return nil
	}
	runFig6 := func() error {
		cfg := experiments.ModelSizeConfig{Seed: *seed, Rows: pick(*rows, 40000), Repetitions: pick(*reps, 5), Metrics: reg, Checkpoints: ckpts}
		if *quick {
			cfg.Sizes = []int{1024, 4096, 16384}
			cfg.Rows = pick(*rows, 12000)
			cfg.Repetitions = pick(*reps, 3)
			cfg.TrainQueries = 40
			cfg.TestQueries = 50
		}
		res, err := experiments.ModelSize(cfg)
		if err != nil {
			return err
		}
		res.WriteTable(os.Stdout)
		return nil
	}
	runFig7 := func() error {
		cfg := experiments.RuntimeConfig{Seed: *seed, HostWorkers: hostWorkers, Metrics: reg}
		if *quick {
			cfg.Sizes = []int{1024, 8192, 65536}
			cfg.Queries = 25
		} else {
			cfg.Sizes = []int{1024, 4096, 16384, 65536, 262144}
		}
		res, err := experiments.Runtime(cfg)
		if err != nil {
			return err
		}
		res.WriteTable(os.Stdout)
		return nil
	}
	runFig8 := func() error {
		for _, dims := range []int{5, 8} {
			cfg := experiments.ChangingConfig{Dims: dims, Seed: *seed, Repetitions: pick(*reps, 5), Metrics: reg}
			if *quick {
				cfg.Repetitions = pick(*reps, 2)
				cfg.Evolving = workload.EvolvingConfig{
					Dims: dims, Cycles: 5, InitialTuples: 3000, TuplesPerCluster: 1000,
				}
			}
			res, err := experiments.Changing(cfg)
			if err != nil {
				return err
			}
			res.WriteTable(os.Stdout)
		}
		return nil
	}
	runShift := func() error {
		cfg := experiments.WorkloadShiftConfig{Seed: *seed, Repetitions: pick(*reps, 5), Metrics: reg}
		if *quick {
			cfg.Rows = 3000
			cfg.QueriesPerPhase = 150
			cfg.Repetitions = pick(*reps, 2)
		}
		res, err := experiments.WorkloadShift(cfg)
		if err != nil {
			return err
		}
		res.WriteTable(os.Stdout)
		return nil
	}
	runServe := func() error {
		cfg := experiments.ThroughputConfig{
			Seed:         *seed,
			MaxBatch:     *serveBatch,
			Metrics:      reg,
			ProfileLabel: *profServe,
			Precision:    prec,
		}
		if *quick {
			cfg.SampleSize = 1024
			cfg.QueriesPerClient = 60
		}
		res, err := experiments.Throughput(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("serving: precision=%s (requested %s), erf=%s\n",
			res.ActivePrecision, prec, mathx.CurrentMode())
		res.WriteTable(os.Stdout)
		return nil
	}
	runAnalyze := func() error {
		cfg := experiments.AnalyzeLoadConfig{
			Seed:     *seed,
			MaxBatch: *serveBatch,
			Metrics:  reg,
		}
		if *quick {
			cfg.SampleSize = 1024
			cfg.Feedback = 40
			cfg.Rounds = 2
		}
		res, err := experiments.AnalyzeUnderLoad(cfg)
		if err != nil {
			return err
		}
		res.WriteTable(os.Stdout)
		return nil
	}
	runRegistry := func() error {
		cfg := experiments.RegistryLoadConfig{
			Seed:      *seed,
			Models:    *regModels,
			JoinModel: true,
			MaxBatch:  *serveBatch,
			Metrics:   reg,
		}
		if *quick {
			cfg.Rows = 1500
			cfg.SampleSize = 192
			cfg.Duration = 400 * time.Millisecond
			cfg.Feedback = 96
		}
		res, err := experiments.RegistryLoad(cfg)
		if err != nil {
			return err
		}
		res.WriteTable(os.Stdout)
		return nil
	}
	runShard := func() error {
		cfg := experiments.ShardLoadConfig{
			Seed:    *seed,
			Shards:  *shards,
			Metrics: reg,
		}
		if *quick {
			cfg.Rows = 3000
			cfg.SampleSize = 1024
			cfg.Duration = 300 * time.Millisecond
			cfg.Rounds = 5
			cfg.Feedback = 16
		}
		res, err := experiments.ShardLoad(cfg)
		if err != nil {
			return err
		}
		res.WriteTable(os.Stdout)
		return nil
	}
	runIngest := func() error {
		cfg := experiments.IngestLoadConfig{
			Seed:    *seed,
			Shards:  *shards,
			Metrics: reg,
		}
		if *quick {
			cfg.Rows = 1500
			cfg.SampleSize = 256
			cfg.Duration = 250 * time.Millisecond
			cfg.Rate = 3000
		}
		res, err := experiments.IngestLoad(cfg)
		if err != nil {
			return err
		}
		res.WriteTable(os.Stdout)
		return nil
	}
	runNetwork := func() error {
		cfg := experiments.NetworkConfig{Seed: *seed, Metrics: reg}
		if *quick {
			cfg.SampleSize = 512
			cfg.QueriesPerClient = 40
		}
		res, err := experiments.Network(cfg)
		if err != nil {
			return err
		}
		res.WriteTable(os.Stdout)
		return nil
	}
	runAblations := func() error {
		cfg := experiments.AblationConfig{Seed: *seed, Metrics: reg, Checkpoints: ckpts}
		if *quick {
			cfg.Rows = 2500
			cfg.Repetitions = 3
			cfg.TrainQueries = 40
			cfg.TestQueries = 60
			cfg.SampleSize = 256
		}
		type study struct {
			name string
			fn   func(experiments.AblationConfig) (*experiments.AblationResult, error)
		}
		for _, s := range []study{
			{"ablation-log", experiments.AblationLogUpdates},
			{"ablation-batchsize", experiments.AblationMiniBatch},
			{"ablation-global", experiments.AblationGlobal},
			{"ablation-kernel", experiments.AblationKernel},
			{"ablation-karma", experiments.AblationKarma},
		} {
			res, err := s.fn(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			res.WriteTable(os.Stdout)
		}
		return nil
	}

	switch *exp {
	case "fig4":
		run("figure 4 (static quality, 3D)", runFig4)
	case "fig5":
		run("figure 5 (static quality, 8D)", runFig5)
	case "table1":
		run("table 1 (win matrix)", runTable1)
	case "fig6":
		run("figure 6 (model size)", runFig6)
	case "fig7":
		run("figure 7 (runtime)", runFig7)
	case "fig8":
		run("figure 8 (changing data)", runFig8)
	case "shift":
		run("workload shift (extension)", runShift)
	case "serve":
		run("serving throughput (coalescing)", runServe)
	case "analyze":
		run("ANALYZE under load (snapshot isolation)", runAnalyze)
	case "registry":
		run("multi-model registry (mixed traffic)", runRegistry)
	case "shard":
		run("sharded serving (analyze isolation)", runShard)
	case "network":
		run("network resilience (chaos under overload)", runNetwork)
	case "ingest":
		run("continuous ingestion (bounded-lag serving)", runIngest)
	case "ablations":
		run("ablations", runAblations)
	case "all":
		run("figure 4 (static quality, 3D)", runFig4)
		run("figure 5 (static quality, 8D)", runFig5)
		run("table 1 (win matrix)", runTable1)
		run("figure 6 (model size)", runFig6)
		run("figure 7 (runtime)", runFig7)
		run("figure 8 (changing data)", runFig8)
		run("workload shift (extension)", runShift)
		run("serving throughput (coalescing)", runServe)
		run("ANALYZE under load (snapshot isolation)", runAnalyze)
		run("multi-model registry (mixed traffic)", runRegistry)
		run("sharded serving (analyze isolation)", runShard)
		run("network resilience (chaos under overload)", runNetwork)
		run("continuous ingestion (bounded-lag serving)", runIngest)
		run("ablations", runAblations)
	default:
		fmt.Fprintf(os.Stderr, "kdebench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	finish()
}

func pick(override, def int) int {
	if override > 0 {
		return override
	}
	return def
}
