package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"kdesel/internal/core"
	"kdesel/internal/metrics"
	"kdesel/internal/query"
	"kdesel/internal/registry"
	"kdesel/internal/table"
	"kdesel/internal/workload"
)

// RegistryLoadConfig parameterizes the multi-model mixed-traffic
// experiment: M models over column subsets of one base table (plus
// optionally one join model) serve skewed closed-loop traffic through one
// registry.Registry, while an ANALYZE fires on the second-hottest model and an
// eviction on the third-hottest mid-run; the hottest model stays a pure
// bystander probe. The claim under test is the
// registry's isolation contract: one model's lifecycle work never stalls
// another model's estimates — every other model's p99 during the ANALYZE
// window stays within 2× its quiescent p99.
//
// The quiescent phase is load-matched: one CPU-bound burner goroutine runs
// throughout it, exerting the same scheduler pressure the ANALYZE goroutine
// exerts during the churn phase. Without that, the comparison conflates
// lock coupling (what the registry controls) with CPU time-slicing (what
// the machine imposes) — on a single-core host an estimate that loses one
// scheduling quantum to any busy neighbor blows a naive 2× budget even
// though it never waited on a lock.
type RegistryLoadConfig struct {
	// Models is the number of single-table models (default 8, max 12 —
	// distinct ordered column pairs of the base table).
	Models int
	// JoinModel additionally admits one key–foreign-key join model that
	// receives traffic like any other (default on via withDefaults; the
	// kdebench flag can disable it).
	JoinModel bool
	// BaseDims is the base table dimensionality the subsets project from
	// (default 4).
	BaseDims int
	// Rows in the synthetic base table (default 4000).
	Rows int
	// SampleSize is each model's KDE sample size (default 512).
	SampleSize int
	// Clients is the closed-loop client count; each client picks a model
	// per query under the skewed weights (default 6).
	Clients int
	// Duration is the quiescent-phase wall-clock budget; the churn phase
	// (ANALYZE + eviction) runs after it and adds its own tail (default 1s).
	Duration time.Duration
	// Feedback is the ANALYZE training-set size (default 48).
	Feedback int
	// MaxBatch caps each model's coalescer batch (serve default).
	MaxBatch int
	// MaxResident caps registry residency; 0 disables LRU eviction so the
	// only eviction is the explicit mid-run one (the default).
	MaxResident int
	// Seed drives all randomness.
	Seed int64
	// Metrics, when non-nil, is the shared process registry; the result
	// carries a final snapshot with the per-model namespaces.
	Metrics *metrics.Registry
	// CheckpointDir holds the per-model checkpoint rotation. Empty uses a
	// temporary directory that is removed when the experiment returns.
	CheckpointDir string
}

func (c RegistryLoadConfig) withDefaults() RegistryLoadConfig {
	if c.Models <= 0 {
		c.Models = 8
	}
	if c.Models > 12 {
		c.Models = 12
	}
	if c.BaseDims <= 0 {
		c.BaseDims = 4
	}
	if c.Rows <= 0 {
		c.Rows = 4000
	}
	if c.SampleSize <= 0 {
		c.SampleSize = 512
	}
	if c.Clients <= 0 {
		c.Clients = 6
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Feedback <= 0 {
		c.Feedback = 96
	}
	if c.Metrics == nil {
		// The lifecycle counters and the metrics-intact check need a real
		// registry; a caller that doesn't pass one still gets both via the
		// result's snapshot (nil would silently no-op every instrument).
		c.Metrics = metrics.New()
	}
	return c
}

// RegistryModelStat is one model's view of the run.
type RegistryModelStat struct {
	Key          string
	Weight       float64 // share of the skewed traffic
	Served       int     // estimates completed
	DuringN      int     // estimates whose lifetime overlapped the ANALYZE window
	QuiescentP99 time.Duration
	DuringP99    time.Duration
	// Ratio is DuringP99 / QuiescentP99; 0 when either leg has fewer than
	// minDuringSamples observations (reported unmeasured, not perfect).
	Ratio float64
}

// RegistryLoadResult aggregates the mixed-traffic run.
type RegistryLoadResult struct {
	Config RegistryLoadConfig
	Stats  []RegistryModelStat
	// AnalyzeKey/EvictKey are the models targeted by the mid-run lifecycle
	// events; AnalyzeWindow is the ANALYZE wall-clock duration.
	AnalyzeKey    string
	EvictKey      string
	AnalyzeWindow time.Duration
	// Evictions/Restores are the registry's lifecycle counters at the end:
	// the explicit mid-run eviction plus any LRU/idle ones, and the
	// transparent restore the evicted model's next estimate triggered.
	Evictions int64
	Restores  int64
	// MaxOtherRatio is the worst DuringP99/QuiescentP99 over models that
	// were NOT the ANALYZE or eviction target — the isolation acceptance
	// figure (≤ 2 expected).
	MaxOtherRatio float64
	// MetricsIntact reports that after the run every admitted model still
	// had its own core.estimate_seconds histogram and every resident model
	// its own queue-depth gauge in the shared registry snapshot.
	MetricsIntact bool
	Metrics       *metrics.Snapshot
}

// burnSink keeps the load-matching burner's arithmetic observable.
var burnSink float64

// registryModelKeys returns n distinct ordered column pairs over d base
// columns, deterministically: (0,1),(1,2),...,(d-1,0),(1,0),(2,1),...
func registryModelKeys(n, d int) []registry.Key {
	keys := make([]registry.Key, 0, n)
	for step := 1; len(keys) < n && step < d; step++ {
		for a := 0; a < d && len(keys) < n; a++ {
			keys = append(keys, registry.NewKey("base", a, (a+step)%d))
		}
		for a := 0; a < d && len(keys) < n; a++ {
			keys = append(keys, registry.NewKey("base", (a+step)%d, a))
		}
	}
	return keys
}

// RegistryLoad runs the mixed-traffic experiment.
func RegistryLoad(cfg RegistryLoadConfig) (*RegistryLoadResult, error) {
	cfg = cfg.withDefaults()
	dir := cfg.CheckpointDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "kdesel-registry-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	base, err := syntheticTable(rand.New(rand.NewSource(cfg.Seed+101)), cfg.Rows, cfg.BaseDims)
	if err != nil {
		return nil, err
	}

	reg := registry.New(registry.Config{
		MaxResident:   cfg.MaxResident,
		CheckpointDir: dir,
		Metrics:       cfg.Metrics,
		SweepEvery:    -1,
	})
	defer reg.Close()

	keys := registryModelKeys(cfg.Models, cfg.BaseDims)
	serveCfg := core.ServeConfig{MaxBatch: cfg.MaxBatch}
	for i, k := range keys {
		pt, err := registry.Project(base, k.Columns)
		if err != nil {
			return nil, err
		}
		buildCfg := core.Config{
			Mode: core.Adaptive, SampleSize: cfg.SampleSize,
			Seed: cfg.Seed + int64(i), DisableMaintenance: true,
		}
		if err := reg.Admit(k, pt, buildCfg, serveCfg); err != nil {
			return nil, err
		}
	}
	if cfg.JoinModel {
		// A small key table joined against the base table's column 0 as a
		// (synthetic) foreign key: the join model covers the combined space
		// and is admitted through the same registry as the rest.
		pk, err := table.New(2)
		if err != nil {
			return nil, err
		}
		fk, err := table.New(2)
		if err != nil {
			return nil, err
		}
		jrng := rand.New(rand.NewSource(cfg.Seed + 131))
		for i := 0; i < 64; i++ {
			if err := pk.Insert([]float64{float64(i), jrng.NormFloat64()}); err != nil {
				return nil, err
			}
		}
		for i := 0; i < 512; i++ {
			if err := fk.Insert([]float64{jrng.NormFloat64() * 3, float64(jrng.Intn(64))}); err != nil {
				return nil, err
			}
		}
		jk := registry.NewKey("fk⋈pk", 0, 1, 2, 3)
		if err := reg.AdmitJoin(jk, fk, pk, 1, 0, cfg.SampleSize/2, cfg.Seed+137,
			core.Config{Mode: core.Adaptive, SampleSize: cfg.SampleSize / 2, Seed: cfg.Seed + 139, DisableMaintenance: true},
			serveCfg); err != nil {
			return nil, err
		}
		keys = append(keys, jk)
	}
	nModels := len(keys)

	// Skewed traffic: weight ∝ 1/(rank+1) — model 0 is the hottest.
	weights := make([]float64, nModels)
	var wsum float64
	for i := range weights {
		weights[i] = 1 / float64(i+1)
		wsum += weights[i]
	}
	cum := make([]float64, nModels)
	acc := 0.0
	for i := range weights {
		weights[i] /= wsum
		acc += weights[i]
		cum[i] = acc
	}
	pickModel := func(r *rand.Rand) int {
		u := r.Float64()
		for i, c := range cum {
			if u <= c {
				return i
			}
		}
		return nModels - 1
	}

	// Per-model query streams.
	streams := make([][]query.Range, nModels)
	for i, k := range keys {
		qrng := rand.New(rand.NewSource(cfg.Seed + int64(3000+i)))
		qs, err := workload.Generate(reg.Table(k), workload.UV, 128, workload.Config{}, qrng)
		if err != nil {
			return nil, err
		}
		streams[i] = qs
	}
	// Lifecycle targets: ANALYZE the second-hottest model, evict the third.
	// The hottest model stays a pure bystander, so the best-sampled p99 in
	// the run measures isolation rather than the target's own cost.
	analyzeKey := keys[1%nModels]
	evictKey := keys[2%nModels]
	train, err := labelledWorkload(reg.Table(analyzeKey), workload.UV, cfg.Feedback, rand.New(rand.NewSource(cfg.Seed+41)))
	if err != nil {
		return nil, err
	}

	// Closed-loop clients; each sample's tag is the model it hit.
	crngs := clientRands(cfg.Clients, cfg.Seed+5000)
	counts := make([][]int, cfg.Clients)
	for c := range counts {
		counts[c] = make([]int, nModels)
	}
	estimate := func(c, _ int) (int, error) {
		i := pickModel(crngs[c])
		q := streams[i][counts[c][i]%len(streams[i])]
		counts[c][i]++
		_, err := reg.Estimate(keys[i], q)
		return i, err
	}

	// Quiescent phase under the load-matched burner, then churn: ANALYZE
	// one model while evicting another, with traffic flowing throughout.
	var churnStart, analyzeEnd time.Time
	runStart := time.Now()
	samples, err := runClients(cfg.Clients, 0, estimate, func() error {
		burnStop := make(chan struct{})
		go func() { // same scheduler pressure as the churn-phase ANALYZE goroutine
			x := 1.0
			for {
				select {
				case <-burnStop:
					burnSink = x // defeat dead-code elimination of the burn loop
					return
				default:
				}
				for i := 0; i < 1<<14; i++ {
					x = x*1.0000001 + 1e-9
				}
			}
		}()
		time.Sleep(cfg.Duration)
		close(burnStop)
		churnStart = time.Now()
		analyzeDone := make(chan error, 1)
		go func() { analyzeDone <- reg.Analyze(analyzeKey, train) }()
		time.Sleep(5 * time.Millisecond)
		evictErr := reg.Evict(evictKey)
		aerr := <-analyzeDone
		analyzeEnd = time.Now()
		// Tail: let the evicted model restore under traffic and latencies settle.
		time.Sleep(cfg.Duration / 4)
		if aerr != nil {
			return fmt.Errorf("analyze %v: %w", analyzeKey, aerr)
		}
		if evictErr != nil {
			return fmt.Errorf("evict %v: %w", evictKey, evictErr)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &RegistryLoadResult{
		Config:        cfg,
		AnalyzeKey:    analyzeKey.String(),
		EvictKey:      evictKey.String(),
		AnalyzeWindow: analyzeEnd.Sub(churnStart),
	}
	byModel := make([][]latSample, nModels)
	for _, x := range samples {
		byModel[x.tag] = append(byModel[x.tag], x)
	}
	quies := []interval{{runStart, churnStart}}
	churn := []interval{{churnStart, analyzeEnd}}
	for i, k := range keys {
		legs := splitLegs(byModel[i], quies, churn)
		st := RegistryModelStat{
			Key:          k.String(),
			Weight:       weights[i],
			Served:       len(byModel[i]),
			DuringN:      len(legs.during),
			QuiescentP99: percentileDuration(legs.quiescent, 0.99),
			DuringP99:    percentileDuration(legs.during, 0.99),
		}
		_, st.Ratio = legs.roundRatios()
		if k.String() != res.AnalyzeKey && k.String() != res.EvictKey && st.Ratio > res.MaxOtherRatio {
			res.MaxOtherRatio = st.Ratio
		}
		res.Stats = append(res.Stats, st)
	}

	// Per-model metric namespaces must survive the churn intact.
	if cfg.Metrics != nil {
		snap := cfg.Metrics.Snapshot()
		res.MetricsIntact = true
		for _, k := range keys {
			if _, ok := snap.Histograms[k.MetricPrefix()+"core.estimate_seconds"]; !ok {
				res.MetricsIntact = false
			}
			if reg.IsResident(k) && cfg.MaxBatch > 1 {
				if _, ok := snap.Gauges[k.MetricPrefix()+"serve.queue_depth"]; !ok {
					res.MetricsIntact = false
				}
			}
		}
		res.Evictions = cfg.Metrics.Counter("registry.evictions").Value()
		res.Restores = cfg.Metrics.Counter("registry.restores").Value()
	}
	res.Metrics = snapshotOf(cfg.Metrics)
	return res, nil
}

// WriteTable renders per-model traffic and tail latencies plus the
// isolation verdict.
func (r *RegistryLoadResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "registry mixed traffic: %d models, %d clients, analyze=%s (%s window), evict=%s\n",
		len(r.Stats), r.Config.Clients, r.AnalyzeKey, r.AnalyzeWindow.Round(time.Millisecond), r.EvictKey)
	fmt.Fprintf(w, "%-16s  %7s  %8s  %7s  %14s  %14s  %7s\n",
		"model", "weight", "served", "during", "quiescent p99", "during p99", "ratio")
	for _, st := range r.Stats {
		mark := ""
		switch st.Key {
		case r.AnalyzeKey:
			mark = " *analyze"
		case r.EvictKey:
			mark = " *evict"
		}
		ratio := "-" // unmeasured: too few during-window samples for a p99
		if st.Ratio > 0 {
			ratio = fmt.Sprintf("%.2f", st.Ratio)
		}
		fmt.Fprintf(w, "%-16s  %6.1f%%  %8d  %7d  %14s  %14s  %7s%s\n",
			st.Key, st.Weight*100, st.Served, st.DuringN, st.QuiescentP99, st.DuringP99, ratio, mark)
	}
	if r.Evictions > 0 || r.Restores > 0 {
		fmt.Fprintf(w, "lifecycle: %d evictions, %d restores; per-model metrics intact: %v\n",
			r.Evictions, r.Restores, r.MetricsIntact)
	}
	verdict := "PASS"
	if r.MaxOtherRatio > 2 {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "isolation: max non-target during/quiescent p99 ratio = %.2f (≤ 2 wanted): %s\n",
		r.MaxOtherRatio, verdict)
}
