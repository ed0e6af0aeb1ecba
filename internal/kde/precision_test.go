package kde

import (
	"math"
	"math/rand"
	"testing"

	"kdesel/internal/mathx"
	"kdesel/internal/query"
)

// precRelErr is the relative-error measure of the precision contracts:
// |got − ref| / max(|ref|, floor). The floor keeps the measure meaningful
// where the estimate itself approaches the tiers' absolute error scale —
// below it the contract is effectively absolute. Any non-finite comparison
// maps to +Inf so it can never slip under a threshold.
func precRelErr(got, ref, floor float64) float64 {
	if math.IsNaN(got) || math.IsInf(got, 0) || math.IsNaN(ref) || math.IsInf(ref, 0) {
		return math.Inf(1)
	}
	den := math.Abs(ref)
	if den < floor {
		den = floor
	}
	return math.Abs(got-ref) / den
}

// precContractFloor mirrors core's verify-gate floor: estimates below 1%
// selectivity are compared absolutely (scaled by the floor) because the
// erf table's ~4e-7 absolute error cannot support a 1e-5 relative bound on
// vanishing estimates.
const precContractFloor = 1e-2

// randomPrecEstimator builds a random-sample estimator plus queries whose
// per-dimension widths span 0.25–4 bandwidths, the regime the serving
// sweep probes.
func randomPrecEstimator(t *testing.T, rng *rand.Rand, d, s int) (*Estimator, []query.Range) {
	t.Helper()
	flat := make([]float64, s*d)
	for i := range flat {
		flat[i] = rng.NormFloat64() * (0.5 + 2*rng.Float64())
	}
	e, err := New(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetSampleFlat(flat); err != nil {
		t.Fatal(err)
	}
	h := ScottBandwidth(flat, d)
	for j := range h {
		h[j] *= 0.5 + 1.5*rng.Float64() // random bandwidths around Scott
	}
	if err := e.SetBandwidth(h); err != nil {
		t.Fatal(err)
	}
	qs := make([]query.Range, 24)
	for i := range qs {
		lo, hi := make([]float64, d), make([]float64, d)
		base := rng.Intn(s)
		for j := 0; j < d; j++ {
			c := flat[base*d+j]
			w := h[j] * (0.25 + 3.75*rng.Float64())
			lo[j], hi[j] = c-w, c+w
		}
		qs[i] = query.Range{Lo: lo, Hi: hi}
	}
	return e, qs
}

// TestPrecisionTierContracts is the cross-precision equivalence property
// test: over random samples, random bandwidths, and random queries, the
// four serving modes — generic float64, fused float64 (exact and fast
// erf), and float32 tier — agree within their contracts: float64 modes
// within ulp-scale of each other (covered by TestCrossLayoutEquivalence),
// float32 within 1e-5 relative (floored at 1% selectivity). The Makefile
// precision-accuracy gate greps for this test; it must never be skipped.
func TestPrecisionTierContracts(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	worst32 := 0.0
	for trial := 0; trial < 6; trial++ {
		d := []int{1, 2, 4, 8}[trial%4]
		s := 512 + rng.Intn(1500)
		e, qs := randomPrecEstimator(t, rng, d, s)

		ref := make([]float64, len(qs))
		if err := e.SelectivityBatch(qs, ref); err != nil {
			t.Fatal(err)
		}

		e32 := e.Clone()
		e32.SetPrecision(mathx.Float32)
		if got := e32.servePrecision(); got != mathx.Float32 {
			t.Fatalf("trial %d: float32 tier not serving (got %v)", trial, got)
		}
		got32 := make([]float64, len(qs))
		if err := e32.SelectivityBatch(qs, got32); err != nil {
			t.Fatal(err)
		}

		for i := range qs {
			if r := precRelErr(got32[i], ref[i], precContractFloor); r > worst32 {
				worst32 = r
			}
			// Batch and per-query compressed paths are bit-identical.
			s32, err := e32.Selectivity(qs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(s32, got32[i]) {
				t.Fatalf("trial %d q%d: float32 batch %v != per-query %v", trial, i, got32[i], s32)
			}
		}
	}
	if worst32 > 1e-5 {
		t.Fatalf("float32 tier max relative error %.3g exceeds 1e-5 contract", worst32)
	}
	t.Logf("max relative error: float32 %.3g (contract 1e-5)", worst32)
}

// TestPrecisionFloat64Unchanged proves the default path is untouched by the
// tier machinery: an estimator with Float64 precision (set explicitly or
// never set) returns bit-identical estimates to one that has cycled
// through the float32 tier and back, on every serving entry point —
// and an estimator configured Float32 still runs its float64 entry points
// (Contributions, gradients) bit-identically, since reduced precision
// applies only to Selectivity and SelectivityBatch.
func TestPrecisionFloat64Unchanged(t *testing.T) {
	e, qs := detEstimator(t, 5)
	d := e.Dims()

	cycled := e.Clone()
	cycled.SetPrecision(mathx.Float32)
	cycled.SetPrecision(mathx.Float64)
	if len(cycled.cols32) != 0 {
		t.Fatal("Float64 precision should drop the float32 tier")
	}

	e32 := e.Clone()
	e32.SetPrecision(mathx.Float32)

	for i, q := range qs {
		ref, err := e.Selectivity(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cycled.Selectivity(q)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(ref, got) {
			t.Fatalf("q%d: Selectivity drifted after precision cycling: %v vs %v", i, ref, got)
		}
		refG, gotG := make([]float64, d), make([]float64, d)
		refEst, err := e.SelectivityGradient(q, refG)
		if err != nil {
			t.Fatal(err)
		}
		gotEst, err := e32.SelectivityGradient(q, gotG)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(refEst, gotEst) {
			t.Fatalf("q%d: float32 config changed the gradient-path estimate", i)
		}
		for j := range refG {
			if !bitsEqual(refG[j], gotG[j]) {
				t.Fatalf("q%d: float32 config changed gradient[%d]", i, j)
			}
		}
		refC, refCE, err := e.Contributions(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotC, gotCE, err := e32.Contributions(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(refCE, gotCE) {
			t.Fatalf("q%d: float32 config changed the Contributions estimate", i)
		}
		for p := range refC {
			if !bitsEqual(refC[p], gotC[p]) {
				t.Fatalf("q%d: float32 config changed contribution %d", i, p)
			}
		}
	}
}

// TestPrecisionParallelBitIdentical asserts the float32 tier keeps the
// repo's central determinism guarantee: for every worker count, float32-tier
// Selectivity and SelectivityBatch return exactly the serial bits.
func TestPrecisionParallelBitIdentical(t *testing.T) {
	e, qs := detEstimator(t, 5)
	e.SetPrecision(mathx.Float32)
	refB := make([]float64, len(qs))
	if err := e.SelectivityBatch(qs, refB); err != nil {
		t.Fatal(err)
	}
	refS := make([]float64, len(qs))
	for i, q := range qs {
		v, err := e.Selectivity(q)
		if err != nil {
			t.Fatal(err)
		}
		refS[i] = v
	}
	for _, w := range workerCounts {
		e.SetWorkers(w)
		got := make([]float64, len(qs))
		if err := e.SelectivityBatch(qs, got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !bitsEqual(got[i], refB[i]) {
				t.Fatalf("workers=%d q%d: batch not bit-identical to serial", w, i)
			}
			v, err := e.Selectivity(qs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(v, refS[i]) {
				t.Fatalf("workers=%d q%d: Selectivity not bit-identical to serial", w, i)
			}
		}
	}
}

// TestPrecisionReplacePointSync checks ReplacePoint keeps the float32 tier
// consistent: the patched tier must match a from-scratch rebuild exactly.
func TestPrecisionReplacePointSync(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e, qs := randomPrecEstimator(t, rng, 3, 600)
	e.SetPrecision(mathx.Float32)
	for i := 0; i < 40; i++ {
		idx := rng.Intn(e.Size())
		row := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if err := e.ReplacePoint(idx, row); err != nil {
			t.Fatal(err)
		}
	}
	fresh := e.Clone() // Clone rebuilds tiers from the mutated sample
	for i, q := range qs {
		a, err := e.Selectivity(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.Selectivity(q)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(a, b) {
			t.Fatalf("q%d: patched float32 tier differs from rebuilt tier: %v vs %v", i, a, b)
		}
	}
}

// TestSnapshotPinsPrecision checks the snapshot contract: a view carries
// the precision configured at snapshot time, keeps serving it after the
// writer reconfigures, and bandwidth-only republishes share the frozen
// tier buffers instead of copying them.
func TestSnapshotPinsPrecision(t *testing.T) {
	e, qs := detEstimator(t, 4)
	e.SetPrecision(mathx.Float32)
	v1 := e.Snapshot(nil)
	if v1.Precision() != mathx.Float32 {
		t.Fatalf("view precision = %v, want float32", v1.Precision())
	}
	want, err := e.Selectivity(qs[0])
	if err != nil {
		t.Fatal(err)
	}

	// Bandwidth-only change: republished view shares the frozen tier.
	h := e.Bandwidth()
	h[0] *= 1.1
	if err := e.SetBandwidth(h); err != nil {
		t.Fatal(err)
	}
	v2 := e.Snapshot(v1)
	if len(v2.est.cols32) == 0 || &v2.est.cols32[0] != &v1.est.cols32[0] {
		t.Fatal("bandwidth-only republish should share the frozen float32 tier")
	}

	// Writer flips back to float64; the published views keep their tier.
	e.SetPrecision(mathx.Float64)
	got, err := v1.Selectivity(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got, want) {
		t.Fatalf("view estimate changed after writer reconfigured precision: %v vs %v", got, want)
	}
	// And a fresh snapshot at float64 must not share the float32 view's
	// buffers (precision is part of the share condition).
	v3 := e.Snapshot(v2)
	if v3.Precision() != mathx.Float64 || len(v3.est.cols32) != 0 {
		t.Fatal("float64 snapshot should carry no float32 tier")
	}
}
