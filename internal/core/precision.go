// Precision-tier management: the serving layer's contract around the
// compressed columnar read tier of internal/kde (the float32 mirror). The
// configured precision is a request, not a promise: before a tier is ever
// served it must pass the publish-time verify gate below, which sweeps a
// deterministic set of queries over the current model and measures the
// tier's worst relative error against the float64 reference path. A tier over its contract is never published —
// the model keeps serving float64, core.precision_fallbacks increments,
// and the estimator takes the Degraded rung of the recovery ladder
// (health.go), exactly like a fast-erf or device degradation.
//
// Verification is keyed to sample churn: karma/reservoir point
// replacements patch the tier in place (kde.ReplacePoint), so after the
// sample generation has advanced by s/2 since the last verification the
// tier is rebuilt from the float64 mirror and swept again. Bandwidth-only
// publishes reuse the verified tier without a re-sweep — the tier holds
// sample values, not bandwidth-dependent state — which keeps the common
// Feedback publish cheap; the error contract is re-checked against the new
// bandwidth only at the next churn-triggered or explicit re-verification.
//
// Device-placed models have no host tier to verify: the configured
// precision there only narrows the simulated bounds-tile transfers
// (gpu.Engine.SetPrecision), and the gate applies as soon as the model
// degrades onto the host path.
package core

import (
	"math"
	"math/rand"

	"kdesel/internal/mathx"
	"kdesel/internal/query"
)

const (
	// precSweepQueries is the size of the deterministic verify sweep.
	precSweepQueries = 32
	// precSweepSeed seeds the sweep's private rng. The sweep must be
	// deterministic and must not consume the estimator's checkpointed
	// random stream, so it never draws from Estimator.rng.
	precSweepSeed = 0x5eed32
	// precRelFloor is the denominator floor of the relative-error measure:
	// below it, absolute error is what matters (a 1e-9 drift on a 1e-8
	// selectivity is irrelevant to an optimizer, not a 10% error).
	precRelFloor = 1e-2
)

// precContract returns the maximum relative error (against precRelFloor)
// a tier may show on the verify sweep before it is refused.
func precContract(p mathx.Precision) float64 {
	if p == mathx.Float32 {
		return 1e-5
	}
	return 0
}

// PrecisionFromMeta decodes the serving precision a checkpoint frame's meta
// word carries in its low byte — the one decoder both model engines'
// restores call. v1 frames carry meta 0 (Float64); any byte that is not a
// current tier, including a future format's or the retired int16 tier's 2,
// degrades to Float64 rather than failing the restore or being written
// back on the next checkpoint.
func PrecisionFromMeta(meta uint32) mathx.Precision {
	if p := mathx.Precision(meta & 0xff); p == mathx.Float32 {
		return p
	}
	return mathx.Float64
}

// reverifyGens is the sample-churn budget between verifications: once the
// kde generation counter has advanced this far, the tier is rebuilt and
// swept again before the next publish.
func reverifyGens(s int) uint64 {
	if s < 2 {
		return 1
	}
	return uint64(s / 2)
}

// configurePrecision installs the requested serving precision. On the host
// path the tier is built and verified immediately (so even
// SerializeEstimates servers, which never publish snapshots, serve the
// tier); on the device path it reconfigures the engine's simulated
// transfer widths. Float64 restores the exact path unconditionally.
func (e *Estimator) configurePrecision(p mathx.Precision) {
	e.precWant = p
	e.precVerified = false
	e.precDisabled = false
	if e.eng != nil {
		e.eng.SetPrecision(p)
	}
	e.ensurePrecision()
}

// invalidatePrecision forces the next ensurePrecision to rebuild and
// re-verify the tier (and to retry a previously refused one). Called where
// the model changes in ways the error profile depends on: bandwidth
// re-optimization and Scott's-rule resets.
func (e *Estimator) invalidatePrecision() {
	e.precVerified = false
	e.precDisabled = false
}

// ConfiguredPrecision returns the precision requested for this estimator
// (via ServeConfig.Precision or Server.SetPrecision), whether or not it is
// currently being served.
func (e *Estimator) ConfiguredPrecision() mathx.Precision { return e.precWant }

// ActivePrecision returns the tier estimates are actually served from:
// the published snapshot's pinned precision when snapshot serving is on,
// otherwise the live model's. It differs from ConfiguredPrecision when the
// verify gate refused the tier (served: Float64) or on a device-placed
// model (the device has no host tier; the setting only narrows simulated
// transfers).
func (e *Estimator) ActivePrecision() mathx.Precision {
	if ms := e.snap.Load(); ms != nil {
		return ms.view.Precision()
	}
	if e.host != nil {
		return e.host.Precision()
	}
	if e.eng != nil {
		return e.eng.Precision()
	}
	return mathx.Float64
}

// ensurePrecision reconciles the host model's served tier with the
// configured precision before a publish. The common case — tier built,
// verified, churn within budget — is three field reads. Otherwise the tier
// is (re)built from the float64 mirror and swept through the verify gate;
// a tier over contract is dropped: the model serves float64, the fallback
// is counted, and the request stays parked until invalidatePrecision.
func (e *Estimator) ensurePrecision() {
	if e.host == nil {
		return
	}
	want := e.precWant
	if want == mathx.Float64 || e.precDisabled {
		if e.host.Precision() != mathx.Float64 {
			e.host.SetPrecision(mathx.Float64)
		}
		return
	}
	gen := e.host.Gen()
	if e.host.Precision() == want && e.precVerified && gen-e.precGen < reverifyGens(e.host.Size()) {
		return
	}
	e.host.SetPrecision(want) // (re)build the tier from the current sample
	if e.verifyPrecision(want) {
		e.precVerified = true
		e.precGen = gen
		return
	}
	e.host.SetPrecision(mathx.Float64)
	e.precDisabled = true
	e.met.precisionFallbacks.Inc()
	e.Degrade(Degraded, "precision tier "+want.String()+" over error contract; serving float64")
}

// verifyPrecision sweeps precSweepQueries deterministic queries — centered
// near sample points, per-dimension widths 0.25–4× the bandwidth, the
// workload shape selectivity estimation actually sees — and compares the
// tier against the float64 reference. Any non-finite value or relative
// error over the contract refuses the tier.
func (e *Estimator) verifyPrecision(want mathx.Precision) bool {
	contract := precContract(want)
	if !(contract > 0) {
		return false
	}
	rng := rand.New(rand.NewSource(precSweepSeed))
	h := e.host.Bandwidth()
	d, s := e.d, e.host.Size()
	if s == 0 || len(h) != d {
		return false
	}
	for k := 0; k < precSweepQueries; k++ {
		p := e.host.Point(rng.Intn(s))
		lo := make([]float64, d)
		hi := make([]float64, d)
		for j := 0; j < d; j++ {
			c := p[j] + (rng.Float64()-0.5)*h[j]
			w := h[j] * (0.25 + 3.75*rng.Float64())
			lo[j], hi[j] = c-w, c+w
		}
		q := query.Range{Lo: lo, Hi: hi}
		got, err := e.host.Selectivity(q)
		if err != nil {
			return false
		}
		ref, err := e.host.SelectivityRef(q)
		if err != nil {
			return false
		}
		if math.IsNaN(got) || math.IsInf(got, 0) || math.IsNaN(ref) || math.IsInf(ref, 0) {
			return false
		}
		if math.Abs(got-ref) > contract*math.Max(math.Abs(ref), precRelFloor) {
			return false
		}
	}
	return true
}
