// Command kdesel builds a KDE selectivity estimator over a CSV table and
// answers range queries from the command line — the library's ANALYZE +
// EXPLAIN workflow in miniature.
//
// Usage:
//
//	kdesel -data table.csv [-mode batch] [-sample 1024] [-train 100] \
//	       [-save model.kde | -load model.kde] [-truth] \
//	       [-metrics-out metrics.json] \
//	       "lo1,lo2,...:hi1,hi2,..." ...
//
// The CSV must be all-numeric; pass -header to skip a header row. Each
// positional argument is one range query, written as the lower corner and
// upper corner separated by a colon. Batch mode self-trains on -train
// random data-centered queries with exact feedback. -save/-load persist the
// fitted model with encoding/gob.
//
// -serve-batch N (with N > 1) serves the positional queries concurrently
// through the coalescing server, sharing fused sample traversals between
// them. The coalescer never waits for batch-mates: a batch is what queued
// while the previous one was evaluated.
// The server stays open through the -truth feedback loop and -checkpoint:
// writer operations take its writer lock while estimates serve lock-free
// from the published model snapshot, as in an embedded deployment. -erf
// fast switches the Gaussian kernels to the polynomial erf (|error| ≤
// 1e-7, ~4× faster). -precision float32 serves estimates from a float32
// columnar tier (4 bytes per sample value); the tier is verified against
// its error contract before it is served and silently falls back to
// float64 (with a stderr note) if it misses.
//
// -models "0,1;1,2" switches to multi-model mode: each semicolon-separated
// ordered column subset becomes one model over the projection of the CSV
// table, admitted into a process-level registry (kdesel.Registry) that
// shares one metrics registry and worker pool across the models. Queries
// gain a routing prefix — "0,1@lo1,lo2:hi1,hi2" routes the range to the
// model over columns (0,1). -analyze "0,1" (or "all") re-optimizes the
// named model(s) ANALYZE-style from -train self-generated feedbacks before
// queries are served; -max-resident bounds resident models (LRU eviction to
// -checkpoint-dir with transparent restore on the next routed estimate);
// -truth feedback flows through the registry to the routed model. The
// single-model persistence flags (-save/-load/-restore/-checkpoint) do not
// apply in this mode.
//
// -listen :8080 switches to serving mode: instead of answering positional
// queries, the process admits the model(s) into a registry and serves the
// HTTP/JSON wire protocol of internal/httpserve (POST /estimate, /feedback,
// /analyze; GET /models, /healthz, /readyz, /metrics) until SIGINT/SIGTERM.
// The first signal drains gracefully — intake is refused with 503 +
// Retry-After, in-flight requests finish (bounded by -drain-timeout), and
// resident models checkpoint to -checkpoint-dir; a second signal forces an
// immediate exit. -http-timeout sets the default per-request deadline
// (callers override per request via timeout_ms). With -models, queries must
// name their model; without it the single all-column model is the default.
//
// -checkpoint/-restore use the framed, CRC-checked checkpoint format of
// internal/checkpoint, which additionally carries the learner accumulators,
// reservoir position, and random stream so a restored estimator continues
// bit-identically. -faults (or the KDESEL_FAULTS environment variable)
// injects deterministic failures to exercise the degradation ladder; if the
// run degrades, the final health state is reported on stderr.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kdesel"
	"kdesel/internal/core"
	"kdesel/internal/fault"
	"kdesel/internal/metrics"
)

func main() {
	var (
		dataPath   = flag.String("data", "", "CSV file with numeric columns (required)")
		header     = flag.Bool("header", false, "skip the first CSV row")
		mode       = flag.String("mode", "batch", "heuristic | scv | batch | adaptive")
		sampleN    = flag.Int("sample", 1024, "KDE sample size")
		trainN     = flag.Int("train", 100, "self-generated training queries for batch mode")
		workers    = flag.Int("workers", 0, "host execution parallelism: 0/1 = serial, n = n workers, -1 = all CPUs (results are identical for any setting)")
		seed       = flag.Int64("seed", 1, "random seed")
		truth      = flag.Bool("truth", false, "also compute and print the exact selectivity")
		savePath   = flag.String("save", "", "save the fitted model to this file")
		loadPath   = flag.String("load", "", "load a fitted model instead of building one")
		ckptPath   = flag.String("checkpoint", "", "write an atomic, CRC-framed checkpoint of the final model state to this file")
		restore    = flag.String("restore", "", "restore a checkpointed model instead of building one (bit-identical continuation)")
		faultSpec  = flag.String("faults", "", "fault injection schedule, e.g. \"transfer:3,5;gradient:every=7,limit=3\" (default: $"+fault.EnvVar+")")
		faultSeed  = flag.Int64("fault-seed", 1, "seed for probabilistic fault clauses (default: $"+fault.EnvSeedVar+")")
		metricsOut = flag.String("metrics-out", "", "write an instrumentation snapshot (JSON) to this file on exit")
		serveBatch = flag.Int("serve-batch", 0, "serve the positional queries concurrently, coalescing up to this many estimates per evaluation (0 = sequential)")
		erfMode    = flag.String("erf", "exact", "erf implementation for Gaussian kernels: exact (math.Erf) | fast (polynomial, |err| ≤ 1e-7)")
		modelsSpec = flag.String("models", "", "multi-model mode: semicolon-separated ordered column subsets, e.g. \"0,1;1,2\"; queries then use cols@lo:hi routing")
		analyzeSp  = flag.String("analyze", "", "with -models: re-optimize the model over these columns (or \"all\") from -train self-generated feedbacks before serving queries")
		maxResid   = flag.Int("max-resident", 0, "with -models: cap resident models; LRU victims are checkpointed to -checkpoint-dir and restored on their next query (0 = unbounded)")
		ckptDir    = flag.String("checkpoint-dir", "", "with -models: directory for per-model checkpoint rotation (also written on exit)")
		precFlag   = flag.String("precision", "float64", "serving precision tier: float64 (exact) | float32 (4 B/value, rel err ≤ 1e-5); float32 falls back to float64 if it misses its error contract")
		shardsN    = flag.Int("shards", 1, "with -listen or -models: partition each model's sample across this many shard estimators (scatter/gather serving, bit-identical results at any count; ANALYZE touches one shard's lock only)")
		listen     = flag.String("listen", "", "serve the model(s) over HTTP/JSON on this address (e.g. :8080) instead of answering positional queries; SIGINT/SIGTERM drains gracefully")
		ingestRate = flag.Float64("ingest-rate", 0, "with -listen: attach continuous ingestion to every model and replay synthetic rows (existing rows with small jitter) into each backing table at this many rows/second while serving (0 = off)")
		httpTo     = flag.Duration("http-timeout", time.Second, "with -listen: default per-request deadline (callers override via timeout_ms)")
		drainTo    = flag.Duration("drain-timeout", 10*time.Second, "with -listen: how long a graceful drain waits for in-flight requests")
	)
	flag.Parse()
	if m, ok := kdesel.ParseErfMode(*erfMode); ok {
		kdesel.SetErfMode(m)
	} else {
		fail("bad -erf %q (want exact or fast)", *erfMode)
	}
	prec, ok := kdesel.ParsePrecision(*precFlag)
	if !ok {
		fail("bad -precision %q (want float64 or float32)", *precFlag)
	}
	if *dataPath == "" {
		fail("missing -data")
	}
	if *loadPath != "" && *restore != "" {
		fail("-load and -restore are mutually exclusive")
	}
	if *shardsN > 1 && *listen == "" && *modelsSpec == "" {
		fail("-shards needs a registry serving path: pass -listen and/or -models")
	}

	// -faults overrides the environment knobs; both disabled leave injection
	// a nil no-op.
	var inj *fault.Injector
	if *faultSpec != "" {
		sched, err := fault.ParseSchedule(*faultSpec)
		if err != nil {
			fail("bad -faults: %v", err)
		}
		inj = fault.New(*faultSeed, sched)
	} else {
		var err error
		if inj, err = fault.FromEnv(); err != nil {
			fail("%v", err)
		}
	}

	tab, err := loadCSV(*dataPath, *header)
	if err != nil {
		fail("loading %s: %v", *dataPath, err)
	}
	fmt.Fprintf(os.Stderr, "loaded %d rows x %d attributes\n", tab.Len(), tab.Dims())

	// A nil registry keeps every instrument a no-op; the estimator's hot
	// paths stay untouched unless -metrics-out asks for a snapshot.
	var reg *metrics.Registry
	if *metricsOut != "" {
		reg = metrics.New()
	}

	if *listen != "" {
		if *savePath != "" || *loadPath != "" || *restore != "" || *ckptPath != "" {
			fail("-listen is incompatible with -save/-load/-restore/-checkpoint (use -checkpoint-dir; models checkpoint there on drain)")
		}
		if *modelsSpec == "" && flag.NArg() > 0 {
			fail("-listen serves queries over HTTP; positional queries are not answered")
		}
	}

	if *modelsSpec != "" {
		if *savePath != "" || *loadPath != "" || *restore != "" || *ckptPath != "" {
			fail("-models is incompatible with -save/-load/-restore/-checkpoint (use -checkpoint-dir)")
		}
		runModels(modelsRun{
			spec:        *modelsSpec,
			analyze:     *analyzeSp,
			tab:         tab,
			tableName:   strings.TrimSuffix(filepath.Base(*dataPath), filepath.Ext(*dataPath)),
			mode:        *mode,
			sampleN:     *sampleN,
			trainN:      *trainN,
			workers:     *workers,
			maxResident: *maxResid,
			shards:      *shardsN,
			seed:        *seed,
			truth:       *truth,
			ckptDir:     *ckptDir,
			metricsOut:  *metricsOut,
			met:         reg,
			serveBatch:  *serveBatch,
			prec:        prec,
			faults:      inj,
			queries:     flag.Args(),
			listen:      *listen,
			httpTimeout: *httpTo,
			drainTime:   *drainTo,
			ingestRate:  *ingestRate,
		})
		return
	}

	if *listen != "" {
		// Serving mode: admit one all-column model into a registry so the HTTP
		// frontend routes by model key and Close checkpoints on drain.
		tableName := strings.TrimSuffix(filepath.Base(*dataPath), filepath.Ext(*dataPath))
		cols := make([]int, tab.Dims())
		for i := range cols {
			cols[i] = i
		}
		key := kdesel.NewModelKey(tableName, cols...)
		rreg := kdesel.NewRegistry(kdesel.RegistryConfig{
			CheckpointDir: *ckptDir,
			Workers:       *workers,
			Metrics:       reg,
		})
		cfg := kdesel.Config{SampleSize: *sampleN, Seed: *seed, Faults: inj}
		switch *mode {
		case "heuristic":
			cfg.Mode = kdesel.Heuristic
		case "scv":
			cfg.Mode = kdesel.SCV
		case "batch":
			cfg.Mode = kdesel.Batch
			cfg.Training = selfTrain(tab, *trainN, *seed)
		case "adaptive":
			cfg.Mode = kdesel.Adaptive
		default:
			fail("unknown mode %q", *mode)
		}
		serveCfg := kdesel.ServeConfig{MaxBatch: *serveBatch, Precision: prec}
		if *shardsN > 1 {
			// Sharded models start from the heuristic bandwidth and adapt
			// through feedback; -mode shapes only the unsharded path.
			if err := rreg.AdmitSharded(key, tab, cfg, *shardsN, serveCfg); err != nil {
				fail("admitting %s (%d shards): %v", key, *shardsN, err)
			}
		} else if err := rreg.Admit(key, tab, cfg, serveCfg); err != nil {
			fail("admitting %s: %v", key, err)
		}
		stopIngest := startIngest(rreg, []kdesel.ModelKey{key}, *ingestRate, *seed)
		if err := serveHTTP(rreg, serveOpts{
			addr:         *listen,
			deft:         key.String(),
			timeout:      *httpTo,
			drainTimeout: *drainTo,
			met:          reg,
			faults:       inj,
		}); err != nil {
			fail("%v", err)
		}
		stopIngest()
		rreg.Close()
		if *ckptDir != "" {
			fmt.Fprintf(os.Stderr, "model checkpoints written to %s\n", *ckptDir)
		}
		flushMetrics(*metricsOut, reg)
		return
	}

	var est *kdesel.Estimator
	if *restore != "" {
		est, err = kdesel.RestoreCheckpoint(*restore, tab, nil)
		if err != nil {
			fail("restoring checkpoint: %v", err)
		}
		est.SetWorkers(*workers)
		// Checkpoints carry model state, not wiring; reattach both here.
		est.Instrument(reg)
		est.SetFaultInjector(inj)
	} else if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			fail("opening model: %v", err)
		}
		est, err = core.Load(f, tab, nil)
		closeErr := f.Close()
		if err != nil {
			fail("loading model: %v", err)
		}
		if closeErr != nil {
			fail("closing model: %v", closeErr)
		}
		est.SetWorkers(*workers)
		// Gob persistence does not carry instrumentation; attach it here.
		est.Instrument(reg)
		est.SetFaultInjector(inj)
	} else {
		cfg := kdesel.Config{SampleSize: *sampleN, Seed: *seed, Workers: *workers, Metrics: reg, Faults: inj}
		switch *mode {
		case "heuristic":
			cfg.Mode = kdesel.Heuristic
		case "scv":
			cfg.Mode = kdesel.SCV
		case "batch":
			cfg.Mode = kdesel.Batch
			cfg.Training = selfTrain(tab, *trainN, *seed)
		case "adaptive":
			cfg.Mode = kdesel.Adaptive
		default:
			fail("unknown mode %q", *mode)
		}
		est, err = kdesel.Build(tab, cfg)
		if err != nil {
			fail("building estimator: %v", err)
		}
	}

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			fail("creating model file: %v", err)
		}
		if err := est.Save(f); err != nil {
			fail("saving model: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("closing model file: %v", err)
		}
		fmt.Fprintf(os.Stderr, "model saved to %s\n", *savePath)
	}

	queries := make([]kdesel.Range, flag.NArg())
	for i, arg := range flag.Args() {
		q, err := parseQuery(arg, tab.Dims())
		if err != nil {
			fail("query %q: %v", arg, err)
		}
		queries[i] = q
	}
	sels := make([]float64, len(queries))
	var srv *kdesel.Server
	if *serveBatch > 1 && len(queries) > 1 {
		// Concurrent serving path: all queries in flight at once, coalesced
		// into shared fused traversals. Output order stays positional. The
		// server stays open through the feedback loop and checkpoint below —
		// writer operations go through its writer lock while the estimator
		// remains servable, exactly as in an embedded deployment.
		srv = kdesel.NewServer(est, kdesel.ServeConfig{MaxBatch: *serveBatch, Metrics: reg, Precision: prec})
		defer srv.Close()
		var wg sync.WaitGroup
		estErrs := make([]error, len(queries))
		for i, q := range queries {
			i, q := i, q
			wg.Add(1)
			go func() {
				defer wg.Done()
				sels[i], estErrs[i] = srv.Estimate(q)
			}()
		}
		wg.Wait()
		for i, err := range estErrs {
			if err != nil {
				fail("estimating %q: %v", flag.Arg(i), err)
			}
		}
	} else {
		if prec != kdesel.PrecisionFloat64 {
			// Reduced-precision serving is a server-level contract (the tier
			// passes its verify gate at publish time), so the sequential path
			// routes through an uncoalesced server rather than the bare
			// estimator.
			srv = kdesel.NewServer(est, kdesel.ServeConfig{MaxBatch: 1, Metrics: reg, Precision: prec})
			defer srv.Close()
		}
		for i, q := range queries {
			var sel float64
			var err error
			if srv != nil {
				sel, err = srv.Estimate(q)
			} else {
				sel, err = est.Estimate(q)
			}
			if err != nil {
				fail("estimating %q: %v", flag.Arg(i), err)
			}
			sels[i] = sel
		}
	}
	if srv != nil && prec != kdesel.PrecisionFloat64 {
		if act := srv.ActivePrecision(); act != prec {
			fmt.Fprintf(os.Stderr, "kdesel: precision tier %s over its error contract; estimates served at %s\n", prec, act)
		}
	}
	for i, q := range queries {
		line := fmt.Sprintf("%s  estimate=%.6f  rows~%.0f", q, sels[i], sels[i]*float64(tab.Len()))
		if *truth {
			actual, _ := tab.Selectivity(q)
			line += fmt.Sprintf("  actual=%.6f", actual)
			// Close the feedback loop so adaptive models keep learning —
			// through the server's writer path when one is serving.
			var err error
			if srv != nil {
				err = srv.Feedback(q, actual)
			} else {
				err = est.Feedback(q, actual)
			}
			if err != nil {
				fail("feedback: %v", err)
			}
		}
		fmt.Println(line)
	}

	if *ckptPath != "" {
		var err error
		if srv != nil {
			err = srv.Checkpoint(*ckptPath)
		} else {
			err = est.Checkpoint(*ckptPath)
		}
		if err != nil {
			fail("writing checkpoint: %v", err)
		}
		fmt.Fprintf(os.Stderr, "checkpoint written to %s\n", *ckptPath)
	}

	health := est.Health()
	if srv != nil {
		health = srv.Health()
	}
	if health != kdesel.Healthy {
		fmt.Fprintf(os.Stderr, "health: %s (last degradation: %s)\n", health, est.LastDegradation())
	}

	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fail("creating metrics file: %v", err)
		}
		if err := reg.WriteJSON(f); err != nil {
			fail("writing metrics: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("closing metrics file: %v", err)
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", *metricsOut)
	}
}

// modelsRun carries the flag values the multi-model path needs.
type modelsRun struct {
	spec, analyze   string
	tab             *kdesel.Table
	tableName       string
	mode            string
	sampleN, trainN int
	workers         int
	maxResident     int
	shards          int
	seed            int64
	truth           bool
	ckptDir         string
	metricsOut      string
	met             *metrics.Registry
	serveBatch      int
	prec            kdesel.Precision
	listen          string
	httpTimeout     time.Duration
	drainTime       time.Duration
	ingestRate      float64
	faults          *fault.Injector
	queries         []string
}

// runModels is the multi-model path: one model per -models column subset,
// admitted into a process-level registry, with every query routed by its
// cols@ prefix and -truth feedback flowing back through the registry.
func runModels(r modelsRun) {
	subsets, err := parseModelSpec(r.spec, r.tab.Dims())
	if err != nil {
		fail("bad -models: %v", err)
	}
	reg := kdesel.NewRegistry(kdesel.RegistryConfig{
		MaxResident:   r.maxResident,
		CheckpointDir: r.ckptDir,
		Workers:       r.workers,
		Metrics:       r.met,
	})

	serveCfg := kdesel.ServeConfig{MaxBatch: r.serveBatch, Precision: r.prec}
	keys := make([]kdesel.ModelKey, len(subsets))
	for i, cols := range subsets {
		key := kdesel.NewModelKey(r.tableName, cols...)
		proj, err := kdesel.ProjectTable(r.tab, cols)
		if err != nil {
			fail("projecting %s: %v", key, err)
		}
		cfg := kdesel.Config{SampleSize: r.sampleN, Seed: r.seed + int64(i), Faults: r.faults}
		switch r.mode {
		case "heuristic":
			cfg.Mode = kdesel.Heuristic
		case "scv":
			cfg.Mode = kdesel.SCV
		case "batch":
			cfg.Mode = kdesel.Batch
			cfg.Training = selfTrain(proj, r.trainN, r.seed+int64(i))
		case "adaptive":
			cfg.Mode = kdesel.Adaptive
		default:
			fail("unknown mode %q", r.mode)
		}
		if r.shards > 1 {
			if err := reg.AdmitSharded(key, proj, cfg, r.shards, serveCfg); err != nil {
				fail("admitting %s (%d shards): %v", key, r.shards, err)
			}
		} else if err := reg.Admit(key, proj, cfg, serveCfg); err != nil {
			fail("admitting %s: %v", key, err)
		}
		keys[i] = key
	}
	fmt.Fprintf(os.Stderr, "registry: %d models admitted over %s\n", len(keys), r.tableName)

	if r.analyze != "" {
		targets := keys
		if r.analyze != "all" {
			cols, err := parseCols(r.analyze)
			if err != nil {
				fail("bad -analyze: %v", err)
			}
			targets = []kdesel.ModelKey{kdesel.NewModelKey(r.tableName, cols...)}
		}
		for _, key := range targets {
			proj := reg.Table(key)
			if proj == nil {
				fail("analyze: unknown model %s", key)
			}
			train := selfTrain(proj, r.trainN, r.seed+999)
			if err := reg.Analyze(key, train); err != nil {
				fail("analyze %s: %v", key, err)
			}
			fmt.Fprintf(os.Stderr, "analyzed %s with %d feedbacks\n", key, len(train))
		}
	}

	if r.listen != "" {
		// Multi-model serving: callers route by naming a model; a default is
		// only safe when there is exactly one.
		deft := ""
		if len(keys) == 1 {
			deft = keys[0].String()
		}
		stopIngest := startIngest(reg, keys, r.ingestRate, r.seed)
		if err := serveHTTP(reg, serveOpts{
			addr:         r.listen,
			deft:         deft,
			timeout:      r.httpTimeout,
			drainTimeout: r.drainTime,
			met:          r.met,
			faults:       r.faults,
		}); err != nil {
			fail("%v", err)
		}
		stopIngest()
		reg.Close()
		if r.ckptDir != "" {
			fmt.Fprintf(os.Stderr, "model checkpoints written to %s\n", r.ckptDir)
		}
		flushMetrics(r.metricsOut, r.met)
		return
	}

	// Parse every routed query up front so a typo fails before any serving.
	type routed struct {
		key kdesel.ModelKey
		q   kdesel.Range
	}
	qs := make([]routed, len(r.queries))
	for i, arg := range r.queries {
		cols, rest, err := splitRoutedQuery(arg)
		if err != nil {
			fail("query %q: %v", arg, err)
		}
		q, err := parseQuery(rest, len(cols))
		if err != nil {
			fail("query %q: %v", arg, err)
		}
		qs[i] = routed{kdesel.NewModelKey(r.tableName, cols...), q}
	}

	// All queries go in flight at once; each model's coalescer batches its
	// own share while the registry routes lock-free. Output stays positional.
	sels := make([]float64, len(qs))
	estErrs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i, rq := range qs {
		i, rq := i, rq
		wg.Add(1)
		go func() {
			defer wg.Done()
			sels[i], estErrs[i] = reg.Estimate(rq.key, rq.q)
		}()
	}
	wg.Wait()
	for i, err := range estErrs {
		if err != nil {
			fail("estimating %q: %v", r.queries[i], err)
		}
	}
	for i, rq := range qs {
		proj := reg.Table(rq.key)
		line := fmt.Sprintf("%s %s  estimate=%.6f  rows~%.0f", rq.key, rq.q, sels[i], sels[i]*float64(proj.Len()))
		if r.truth {
			actual, _ := proj.Selectivity(rq.q)
			line += fmt.Sprintf("  actual=%.6f", actual)
			if err := reg.Feedback(rq.key, rq.q, actual); err != nil {
				fail("feedback: %v", err)
			}
		}
		fmt.Println(line)
	}

	// Close checkpoints every resident model when -checkpoint-dir is set.
	reg.Close()
	if r.ckptDir != "" {
		fmt.Fprintf(os.Stderr, "model checkpoints written to %s\n", r.ckptDir)
	}

	flushMetrics(r.metricsOut, r.met)
}

// startIngest implements -ingest-rate: it attaches a continuous-ingestion
// bridge to every model (registry.AttachIngest) and starts one replay
// goroutine per model that inserts synthetic rows — existing rows re-drawn
// from the backing table with ±1% jitter of the attribute range — at rate
// rows/second each. The returned stop function ends the replay, waits for
// the writers, and reports totals; with rate ≤ 0 everything is a no-op.
func startIngest(reg *kdesel.Registry, keys []kdesel.ModelKey, rate float64, seed int64) (stop func()) {
	if rate <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var inserted atomic.Int64
	for i, key := range keys {
		if err := reg.AttachIngest(key, kdesel.IngestOptions{}); err != nil {
			fail("attaching ingestion to %s: %v", key, err)
		}
		tab := reg.Table(key)
		rng := rand.New(rand.NewSource(seed + 7919*int64(i)))
		interval := time.Duration(float64(time.Second) / rate)
		if interval < time.Microsecond {
			interval = time.Microsecond
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			bounds, haveBounds := tab.Bounds()
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					row, ok := tab.RandomRow(rng)
					if !ok {
						continue
					}
					if haveBounds {
						for j := range row {
							row[j] += (rng.Float64() - 0.5) * 0.02 * (bounds.Hi[j] - bounds.Lo[j])
						}
					}
					if err := tab.Insert(row); err == nil {
						inserted.Add(1)
					}
				}
			}
		}()
	}
	fmt.Fprintf(os.Stderr, "ingest: replaying ~%.0f rows/s into %d model(s)\n", rate, len(keys))
	return func() {
		close(done)
		wg.Wait()
		fmt.Fprintf(os.Stderr, "ingest: %d rows replayed\n", inserted.Load())
	}
}

// flushMetrics writes a JSON snapshot to path when -metrics-out asked for one.
func flushMetrics(path string, met *metrics.Registry) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fail("creating metrics file: %v", err)
	}
	if err := met.WriteJSON(f); err != nil {
		fail("writing metrics: %v", err)
	}
	if err := f.Close(); err != nil {
		fail("closing metrics file: %v", err)
	}
	fmt.Fprintf(os.Stderr, "metrics written to %s\n", path)
}

// parseModelSpec parses "0,1;1,2" into ordered column subsets, validating
// every index against the table dimensionality.
func parseModelSpec(spec string, dims int) ([][]int, error) {
	var out [][]int
	for _, group := range strings.Split(spec, ";") {
		cols, err := parseCols(group)
		if err != nil {
			return nil, err
		}
		for _, c := range cols {
			if c >= dims {
				return nil, fmt.Errorf("column %d out of range (table has %d)", c, dims)
			}
		}
		out = append(out, cols)
	}
	return out, nil
}

// parseCols parses a comma-separated list of non-negative column indices.
func parseCols(s string) ([]int, error) {
	fields := strings.Split(s, ",")
	cols := make([]int, 0, len(fields))
	for _, f := range fields {
		c, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || c < 0 {
			return nil, fmt.Errorf("invalid column %q", f)
		}
		cols = append(cols, c)
	}
	return cols, nil
}

// splitRoutedQuery splits "0,1@lo...:hi..." into routing columns and range.
func splitRoutedQuery(s string) ([]int, string, error) {
	at := strings.IndexByte(s, '@')
	if at < 0 {
		return nil, "", fmt.Errorf("want cols@lo...:hi... in -models mode")
	}
	cols, err := parseCols(s[:at])
	if err != nil {
		return nil, "", err
	}
	return cols, s[at+1:], nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "kdesel: "+format+"\n", args...)
	os.Exit(1)
}

// loadCSV reads an all-numeric CSV into a table.
func loadCSV(path string, skipHeader bool) (*kdesel.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, err
	}
	if skipHeader && len(records) > 0 {
		records = records[1:]
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("no data rows")
	}
	d := len(records[0])
	tab, err := kdesel.NewTable(d)
	if err != nil {
		return nil, err
	}
	for i, rec := range records {
		row := make([]float64, d)
		for j, field := range rec {
			v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil {
				return nil, fmt.Errorf("row %d col %d: %w", i+1, j+1, err)
			}
			row[j] = v
		}
		if err := tab.Insert(row); err != nil {
			return nil, fmt.Errorf("row %d: %w", i+1, err)
		}
	}
	return tab, nil
}

// parseQuery parses "lo1,lo2,...:hi1,hi2,..." into a validated range.
func parseQuery(s string, dims int) (kdesel.Range, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return kdesel.Range{}, fmt.Errorf("want lo...:hi...")
	}
	lo, err := parseVector(parts[0])
	if err != nil {
		return kdesel.Range{}, fmt.Errorf("lower corner: %w", err)
	}
	hi, err := parseVector(parts[1])
	if err != nil {
		return kdesel.Range{}, fmt.Errorf("upper corner: %w", err)
	}
	if len(lo) != dims || len(hi) != dims {
		return kdesel.Range{}, fmt.Errorf("query has %d/%d dims, table has %d", len(lo), len(hi), dims)
	}
	q := kdesel.NewRange(lo, hi)
	if err := q.Validate(); err != nil {
		return kdesel.Range{}, err
	}
	return q, nil
}

func parseVector(s string) ([]float64, error) {
	fields := strings.Split(s, ",")
	out := make([]float64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// selfTrain draws data-centered queries with exact feedback, standing in
// for a recorded user workload.
func selfTrain(tab *kdesel.Table, n int, seed int64) []kdesel.Feedback {
	rng := rand.New(rand.NewSource(seed + 77))
	bounds, _ := tab.Bounds()
	d := tab.Dims()
	out := make([]kdesel.Feedback, n)
	for i := range out {
		c := tab.Row(rng.Intn(tab.Len()))
		lo := make([]float64, d)
		hi := make([]float64, d)
		for j := 0; j < d; j++ {
			half := bounds.Width(j) * (0.02 + rng.Float64()*0.2)
			lo[j], hi[j] = c[j]-half, c[j]+half
		}
		q := kdesel.NewRange(lo, hi)
		actual, _ := tab.Selectivity(q)
		out[i] = kdesel.Feedback{Query: q, Actual: actual}
	}
	return out
}
