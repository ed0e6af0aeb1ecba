// Package experiments contains one driver per table and figure of the
// paper's evaluation (§6), plus the ablations called out in DESIGN.md. Each
// driver is deterministic given its seed, returns a structured result, and
// can render itself as the rows/series the paper reports.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"

	"kdesel/internal/avi"
	"kdesel/internal/core"
	"kdesel/internal/datagen"
	"kdesel/internal/genhist"
	"kdesel/internal/gpu"
	"kdesel/internal/mdhist"
	"kdesel/internal/metrics"
	"kdesel/internal/query"
	"kdesel/internal/stholes"
	"kdesel/internal/table"
	"kdesel/internal/wavelet"
	"kdesel/internal/workload"
)

// EstimatorNames lists the five compared estimators (§6.1.1) in the
// paper's order.
var EstimatorNames = []string{"STHoles", "Heuristic", "SCV", "Batch", "Adaptive"}

// ExtraEstimatorNames lists additional baselines beyond the paper's five,
// all from the related work of §2.2: the attribute-value-independence
// histograms the introduction argues against, GenHist [14], an equi-depth
// multidimensional histogram [32], and a Haar wavelet synopsis [30]
// (low dimensions only).
var ExtraEstimatorNames = []string{"AVI", "GenHist", "MDHist", "Wavelet"}

// estimator is the uniform protocol every compared estimator follows:
// estimate, let the query run, receive feedback.
type estimator interface {
	Name() string
	Estimate(q query.Range) (float64, error)
	Feedback(q query.Range, actual float64) error
}

// coreEstimator adapts core.Estimator to the protocol.
type coreEstimator struct {
	name string
	est  *core.Estimator
}

func (c *coreEstimator) Name() string { return c.name }

func (c *coreEstimator) Estimate(q query.Range) (float64, error) { return c.est.Estimate(q) }

func (c *coreEstimator) Feedback(q query.Range, actual float64) error {
	return c.est.Feedback(q, actual)
}

// staticEstimator adapts a feedback-free estimator (AVI, GenHist) to the
// protocol: feedback is accepted and ignored.
type staticEstimator struct {
	name string
	est  func(query.Range) (float64, error)
}

func (s *staticEstimator) Name() string                            { return s.name }
func (s *staticEstimator) Estimate(q query.Range) (float64, error) { return s.est(q) }
func (s *staticEstimator) Feedback(query.Range, float64) error     { return nil }

// stholesEstimator adapts the STHoles histogram: counts become
// selectivities via the live table cardinality, and feedback refines the
// histogram through the exact-count oracle (the query result stream).
type stholesEstimator struct {
	hist *stholes.Histogram
	tab  *table.Table
}

func (s *stholesEstimator) Name() string { return "STHoles" }

func (s *stholesEstimator) Estimate(q query.Range) (float64, error) {
	n := s.tab.Len()
	if n == 0 {
		return 0, nil
	}
	c, err := s.hist.EstimateCount(q)
	if err != nil {
		return 0, err
	}
	sel := c / float64(n)
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return sel, nil
}

func (s *stholesEstimator) Feedback(q query.Range, _ float64) error {
	return s.hist.Refine(q, func(r query.Range) (float64, error) {
		c, err := s.tab.Count(r)
		return float64(c), err
	})
}

// buildSpec carries everything needed to construct one compared estimator.
type buildSpec struct {
	name   string
	tab    *table.Table
	budget int // memory budget in bytes (paper: d·4 kB)
	train  []query.Feedback
	seed   int64
	device *gpu.Device
	// metrics, when non-nil, instruments the KDE estimators built from this
	// spec (shared across all of a driver's builds).
	metrics *metrics.Registry
	// coreOverrides lets ablations adjust the core config after defaults.
	coreOverrides func(*core.Config)
}

// snapshotOf exports the registry's state for attaching to an experiment
// result; nil in, nil out, so uninstrumented runs serialize without an
// empty metrics blob.
func snapshotOf(r *metrics.Registry) *metrics.Snapshot {
	if r == nil {
		return nil
	}
	s := r.Snapshot()
	return &s
}

// tableRows exposes the table's rows as a slice view for the offline
// histogram builders (they copy what they retain).
func tableRows(tab *table.Table) [][]float64 {
	rows := make([][]float64, tab.Len())
	for i := range rows {
		rows[i] = tab.Row(i)
	}
	return rows
}

// kdeSampleSize converts a memory budget into a sample size for row-major
// float64 points (8 bytes per attribute).
func kdeSampleSize(budgetBytes, d int) int {
	s := budgetBytes / (8 * d)
	if s < 2 {
		s = 2
	}
	return s
}

// buildEstimator constructs one of the five compared estimators under a
// uniform memory budget.
func buildEstimator(spec buildSpec) (estimator, error) {
	if spec.tab == nil {
		return nil, fmt.Errorf("experiments: no table for estimator %q", spec.name)
	}
	d := spec.tab.Dims()
	switch spec.name {
	case "AVI":
		h, err := avi.Build(spec.tab, avi.BucketsForBudget(spec.budget, d))
		if err != nil {
			return nil, err
		}
		return &staticEstimator{name: "AVI", est: h.Selectivity}, nil
	case "GenHist":
		rows := tableRows(spec.tab)
		maxBuckets := spec.budget / genhist.BucketBytes(d)
		if maxBuckets < 1 {
			maxBuckets = 1
		}
		h, err := genhist.Build(rows, d, genhist.Config{MaxBuckets: maxBuckets})
		if err != nil {
			return nil, err
		}
		return &staticEstimator{name: "GenHist", est: h.Selectivity}, nil
	case "MDHist":
		rows := tableRows(spec.tab)
		maxBuckets := spec.budget / mdhist.BucketBytes(d)
		if maxBuckets < 1 {
			maxBuckets = 1
		}
		h, err := mdhist.Build(rows, d, maxBuckets)
		if err != nil {
			return nil, err
		}
		return &staticEstimator{name: "MDHist", est: h.Selectivity}, nil
	case "Wavelet":
		rows := tableRows(spec.tab)
		coeffs := spec.budget / wavelet.CoefficientBytes
		if coeffs < 1 {
			coeffs = 1
		}
		s, err := wavelet.Build(rows, d, wavelet.Config{Coefficients: coeffs})
		if err != nil {
			return nil, err
		}
		return &staticEstimator{name: "Wavelet", est: s.Selectivity}, nil
	case "STHoles":
		bounds, ok := spec.tab.Bounds()
		if !ok {
			return nil, fmt.Errorf("experiments: empty table for %s", spec.name)
		}
		hist, err := stholes.New(d, bounds, float64(spec.tab.Len()),
			stholes.MaxBucketsForBudget(spec.budget, d))
		if err != nil {
			return nil, err
		}
		return &stholesEstimator{hist: hist, tab: spec.tab}, nil
	case "Heuristic", "SCV", "Batch", "Adaptive":
		cfg := core.Config{
			SampleSize: kdeSampleSize(spec.budget, d),
			Seed:       spec.seed,
			Device:     spec.device,
			Training:   spec.train, // consumed only in Batch mode
			Metrics:    spec.metrics,
		}
		switch spec.name {
		case "Heuristic":
			cfg.Mode = core.Heuristic
		case "SCV":
			cfg.Mode = core.SCV
		case "Batch":
			cfg.Mode = core.Batch
		case "Adaptive":
			cfg.Mode = core.Adaptive
		}
		if spec.coreOverrides != nil {
			spec.coreOverrides(&cfg)
		}
		est, err := core.Build(spec.tab, cfg)
		if err != nil {
			return nil, err
		}
		return &coreEstimator{name: spec.name, est: est}, nil
	}
	return nil, fmt.Errorf("experiments: unknown estimator %q", spec.name)
}

// CheckpointConfig enables periodic checkpointing of the KDE estimators
// while a driver replays its training workload. Every Every feedbacks, the
// estimator's complete state is atomically written to Dir/<estimator>.ckpt
// in the framed, CRC-checked format of internal/checkpoint; successive
// builds overwrite the same file, so the newest state wins and a crashed
// run can resume from core.RestoreCheckpoint. The zero value disables
// checkpointing. Non-KDE baselines (STHoles, AVI, ...) have no persistent
// form and are skipped.
type CheckpointConfig struct {
	// Dir receives the checkpoint files; it must exist.
	Dir string
	// Every is the checkpoint period in feedbacks (0 disables).
	Every int
}

func (c CheckpointConfig) enabled() bool { return c.Dir != "" && c.Every > 0 }

// trainEstimator runs the training workload through the feedback loop —
// a no-op for Heuristic/SCV, model refinement for STHoles and Adaptive
// (Batch consumed the training set at construction) — checkpointing the
// model periodically when ckpt is enabled. It polls the process-level
// interrupt flag between feedbacks: on interrupt it writes one final
// checkpoint (when enabled) and returns ErrInterrupted, so a signal lands
// with model state persisted rather than discarded.
func trainEstimator(e estimator, train []query.Feedback, ckpt CheckpointConfig) error {
	ce, _ := e.(*coreEstimator)
	checkpoint := func() error {
		if !ckpt.enabled() || ce == nil {
			return nil
		}
		path := filepath.Join(ckpt.Dir, ce.name+".ckpt")
		if err := ce.est.Checkpoint(path); err != nil {
			return fmt.Errorf("experiments: checkpointing %s: %w", ce.name, err)
		}
		return nil
	}
	for i, fb := range train {
		if Interrupted() {
			if err := checkpoint(); err != nil {
				return err
			}
			return ErrInterrupted
		}
		if _, err := e.Estimate(fb.Query); err != nil {
			return err
		}
		if err := e.Feedback(fb.Query, fb.Actual); err != nil {
			return err
		}
		if ckpt.enabled() && (i+1)%ckpt.Every == 0 {
			if err := checkpoint(); err != nil {
				return err
			}
		}
	}
	return nil
}

// testError measures the average absolute selectivity estimation error over
// the test feedback, the metric of Figures 4–6.
func testError(e estimator, test []query.Feedback) (float64, error) {
	sum := 0.0
	for _, fb := range test {
		est, err := e.Estimate(fb.Query)
		if err != nil {
			return 0, err
		}
		sum += math.Abs(est - fb.Actual)
	}
	return sum / float64(len(test)), nil
}

// loadDataset builds a table holding the named dataset projected to d
// dimensions, using the projection convention of §6.1.2 (a random subset of
// attributes).
func loadDataset(name string, d, rows int, seed int64) (*table.Table, error) {
	rng := rand.New(rand.NewSource(seed))
	ds, err := datagen.ByName(name, rng, rows)
	if err != nil {
		return nil, err
	}
	proj, err := ds.RandomProjection(d, rng)
	if err != nil {
		return nil, err
	}
	tab, err := table.New(d)
	if err != nil {
		return nil, err
	}
	if err := tab.InsertMany(proj.Rows); err != nil {
		return nil, err
	}
	return tab, nil
}

// makeWorkload draws train and test feedback of the given kind.
func makeWorkload(tab *table.Table, kind workload.Kind, train, test int, seed int64) (trainFB, testFB []query.Feedback, err error) {
	fbs, err := labelledWorkload(tab, kind, train+test, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, err
	}
	return fbs[:train], fbs[train:], nil
}
