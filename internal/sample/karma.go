package sample

import (
	"fmt"
	"math"

	"kdesel/internal/loss"
	"kdesel/internal/mathx"
	"kdesel/internal/query"
)

// ExplicitZero is a sentinel requesting a literal zero for a KarmaConfig
// field whose plain zero value selects the paper default (Max, Threshold).
// E.g. KarmaConfig{Threshold: sample.ExplicitZero} replaces any point whose
// cumulative karma drops below zero, while KarmaConfig{Threshold: 0} keeps
// the default of -2.
var ExplicitZero = math.NaN()

// KarmaConfig tunes the karma-based sample maintenance of §4.2.
//
// Zero-valued fields select the paper defaults; to request an actual zero
// for Max or Threshold, set the field to ExplicitZero.
type KarmaConfig struct {
	// Max is the saturation constant K_max of eq. 8 (paper: 4).
	Max float64
	// Threshold is the cumulative karma below which a point is deemed
	// outdated and replaced (default -2).
	Threshold float64
	// Loss is the error metric used in eq. 7 (default absolute error).
	Loss loss.Function
	// NoScale disables the sample-size normalization of karma increments.
	// By default increments are scaled by s so that a point whose removal
	// changes the estimate by a full contribution earns O(1) karma per
	// query, making Max and Threshold scale-free across sample sizes.
	NoScale bool
	// NoShortcut disables the empty-region shortcut of Appendix E.
	NoShortcut bool
}

// defaultOrZero resolves a config field: the ExplicitZero sentinel (NaN)
// means a literal zero, a plain zero means "use the paper default def".
func defaultOrZero(v, def float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	if v == 0 {
		return def
	}
	return v
}

func (c KarmaConfig) withDefaults() KarmaConfig {
	c.Max = defaultOrZero(c.Max, 4)
	c.Threshold = defaultOrZero(c.Threshold, -2)
	if c.Loss == nil {
		c.Loss = loss.Absolute{}
	}
	return c
}

// Karma tracks the cumulative karma score of every sample point (eqs. 6–8)
// and decides which points to replace. It consumes exactly the data the
// GPU pipeline retains anyway — the per-point contribution buffer, the
// estimate, and the true selectivity — so no extra transfers are needed.
type Karma struct {
	cfg    KarmaConfig
	scores []float64
}

// NewKarma returns a karma tracker for a sample of size s.
func NewKarma(s int, cfg KarmaConfig) (*Karma, error) {
	if s <= 0 {
		return nil, fmt.Errorf("sample: karma needs a positive sample size, got %d", s)
	}
	return &Karma{cfg: cfg.withDefaults(), scores: make([]float64, s)}, nil
}

// Size returns the tracked sample size.
func (k *Karma) Size() int { return len(k.scores) }

// Score returns the cumulative karma of point i.
func (k *Karma) Score(i int) float64 { return k.scores[i] }

// Reset clears the karma of point i, called after the point was replaced.
func (k *Karma) Reset(i int) { k.scores[i] = 0 }

// Scores returns a copy of all cumulative karma scores, for persistence.
func (k *Karma) Scores() []float64 {
	out := make([]float64, len(k.scores))
	copy(out, k.scores)
	return out
}

// RestoreScores reinstates previously saved karma scores. It rejects a
// non-finite score: a NaN never falls below the threshold, so its point
// would be exempt from maintenance forever.
func (k *Karma) RestoreScores(scores []float64) error {
	if len(scores) != len(k.scores) {
		return fmt.Errorf("sample: restoring %d scores into karma of size %d", len(scores), len(k.scores))
	}
	for i, v := range scores {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sample: karma score %d is %v", i, v)
		}
	}
	copy(k.scores, scores)
	return nil
}

// Update folds one query's feedback into all karma scores and returns the
// indices of points that should be replaced: points whose cumulative karma
// fell below the threshold, plus — when the true selectivity is zero and a
// positive emptyBound is supplied — points whose contribution proves they
// lie inside the empty query region (Appendix E, condition 20). Returned
// indices have had their scores reset; the caller replaces the points.
//
// contrib holds the per-point contributions p̂^(i)(Ω) retained from the
// estimation pass, est the estimate p̂(Ω), and actual the true selectivity.
func (k *Karma) Update(contrib []float64, est, actual, emptyBound float64) ([]int, error) {
	s := len(k.scores)
	if len(contrib) != s {
		return nil, fmt.Errorf("sample: contribution buffer has %d entries, want %d", len(contrib), s)
	}
	if s == 1 {
		return nil, nil // leave-one-out is undefined for a single point
	}
	baseLoss := k.cfg.Loss.Loss(est, actual)
	scale := 1.0
	if !k.cfg.NoScale {
		scale = float64(s)
	}
	var replace []int
	for i, c := range contrib {
		// eq. 6: the estimate with point i removed.
		without := (est*float64(s) - c) / float64(s-1)
		// eq. 7: positive karma when the point's absence would have made
		// the estimate worse (the point helped).
		inc := scale * (k.cfg.Loss.Loss(without, actual) - baseLoss)
		// eq. 8 with saturation.
		k.scores[i] = math.Min(k.scores[i]+inc, k.cfg.Max)

		outdated := k.scores[i] < k.cfg.Threshold
		if !outdated && !k.cfg.NoShortcut && actual == 0 && emptyBound > 0 && c >= emptyBound {
			outdated = true // provably inside an empty region
		}
		if outdated {
			k.scores[i] = 0
			replace = append(replace, i)
		}
	}
	return replace, nil
}

// EmptyRegionBound computes the contribution threshold of Appendix E for a
// Gaussian kernel: any sample point whose contribution to query q is at
// least the returned bound is guaranteed to lie inside q (condition 20).
// It returns 0 (shortcut unusable) for degenerate queries.
//
// The bound is p̂_max(Ω)/2 · max_j erf(w_j/(√2·h_j)) / erf(w_j/(2√2·h_j))
// with w_j = u_j − l_j and p̂_max(Ω) = ∏_j erf(w_j/(2√2·h_j)) (eq. 19).
func EmptyRegionBound(q query.Range, h []float64) float64 {
	d := q.Dims()
	if d == 0 || len(h) != d {
		return 0
	}
	const sqrt2 = 1.4142135623730951
	pMax := 1.0
	maxRatio := 0.0
	for j := 0; j < d; j++ {
		w := q.Hi[j] - q.Lo[j]
		if !(w > 0) || !(h[j] > 0) {
			return 0
		}
		half := mathx.Erf(w / (2 * sqrt2 * h[j]))
		full := mathx.Erf(w / (sqrt2 * h[j]))
		if half <= 0 {
			return 0
		}
		pMax *= half
		if r := full / half; r > maxRatio {
			maxRatio = r
		}
	}
	return pMax / 2 * maxRatio
}
