package kernel

import (
	"math"

	"kdesel/internal/mathx"
)

// Float32 Gaussian mass kernels for the compressed columnar serving tier
// (kde/fused32.go). They mirror GaussianMassFill/GaussianMassMul on
// []float32 columns, with the erf evaluated by the FastErf32 segment table.
// There is no Exact/Fast switch here: float32 arithmetic caps the achievable accuracy
// below math.Erf's anyway, so the reduced-precision tier always uses the
// table and the distinction collapses (the snapshot still pins the erf mode
// for the float64 tier it may fall back to).
//
// The table evaluation is the erf32 helper below rather than a call to
// mathx.FastErf32: FastErf32 is past the inlining budget, and two calls per
// sample value is what this — the hottest loop in the repo — would
// otherwise pay. erf32 matches FastErf32 bit for bit on every finite
// nonzero input (enforced by TestErf32MatchesFastErf32); it diverges only
// at ±0 (returning the segment-0 cubic's ≈ −5.2e-8 instead of ±0) and on
// NaN (returning ±1 by the NaN's sign bit instead of propagating — NaN can
// never produce a table index).
//
// NaN arguments do reach these kernels: a finite float64 sample value or
// query bound beyond the float32 range becomes ±Inf in the tier, so u−t can
// be Inf−Inf, and an inv that overflowed to +Inf makes (u−t)·inv = 0·Inf on
// a row centered exactly on a bound. Such a bound saturates to ±1, so the
// row mass stays finite and in [−1, 1] but is not the true mass — it can
// even be negative — and the estimate is finite and wrong, never NaN. On an
// unsharded model the publish-time verify gate (core.ensurePrecision)
// compares 32 probe queries against the float64 path and refuses the tier
// only if a probe's error is over contract, which needs a probe to reach
// the affected rows; a sharded group sets its shards' precision with no
// gate at all (shard.buildShards, Group.SetPrecision), so there such an
// estimate is served as is.
//
// GaussianMassFill32 and GaussianMassMul32 run 16 rows at a time through
// an AVX-512F loop (mass32_amd64.s) on CPUs that have it, chosen once at
// init; the pure-Go loops below are the fallback elsewhere, the remainder
// loop for the last len%16 rows, and the oracle the vector loop must match
// bit for bit (TestGaussianMass32SIMDMatchesGo, FuzzGaussianMass32).

// erf32 evaluates the FastErf32 segment table (passed in so the pointer
// load is hoisted out of the kernel loops). Small enough to inline.
func erf32(tab *[mathx.Erf32Segs * 4]float32, x float32) float32 {
	b := math.Float32bits(x)
	sign := math.Float32frombits(b&sign32 | one32)
	ax := math.Float32frombits(b &^ sign32)
	if !(ax < mathx.Erf32Tail) { // saturated tail; NaN and +Inf land here too
		return sign
	}
	// The mask is a no-op (ax < Erf32Tail bounds the index below Erf32Segs)
	// that lets the compiler prove k+3 < len(tab) and drop the four table
	// bounds checks.
	k := (int(ax*mathx.Erf32Scale) & (mathx.Erf32Segs - 1)) * 4
	u := ax - (float32(k>>2)+0.5)*(1/mathx.Erf32Scale)
	return sign * (((tab[k+3]*u+tab[k+2])*u+tab[k+1])*u + tab[k])
}

// massFloor32 is the flush-to-zero threshold for the float32 running
// products: a row product that falls below it is snapped to an exact zero.
// Mathematically invisible — a dropped row contributes < 1e-30 to a sum
// whose error contract floors at 1e-2 — but operationally important twice
// over: products in the 1e-39..1e-45 range are float32 subnormals, which
// stall hardware multipliers for ~100 cycles each, and an exact zero lets
// the zero short-circuit and the dead-tile skip retire the row instead of
// grinding it through the remaining dimensions. The float64 kernels need no
// counterpart: float64 keeps these products normal (down to 1e-308).
const massFloor32 float32 = 1e-30

// Sign-bit arithmetic for the branch-free |x| / sign(x) split: the erf
// argument signs are data-dependent and essentially random across sample
// rows, so an `if x < 0` there is a ~50% branch mispredict per bound. The
// bit forms below are exact for every finite nonzero input (and ±0 only
// flips the sign of the segment-0 cubic's ≈5e-8 result, far inside the erf
// error budget).
const (
	sign32 = 0x8000_0000 // float32 sign bit
	one32  = 0x3f80_0000 // float32 bits of +1
)

// GaussianInv32 returns the hoisted erf argument scaling 1/(√2·h) rounded
// to float32 — the float32 tier's counterpart of GaussianConsts. The
// rounding happens once per query-dimension here, not per sample value, so
// every row of a column sees the identical scaled bounds.
func GaussianInv32(h float64) float32 {
	return float32(invSqrt2 / h)
}

// GaussianMassScaled32 is the scalar form of the float32 fused mass,
// evaluating the exact expression of the GaussianMassFill32 loop so
// single-point and columnar results agree bit for bit.
func GaussianMassScaled32(l, u, t, inv float32) float32 {
	tab := mathx.Erf32Table()
	return 0.5 * (erf32(tab, (u-t)*inv) - erf32(tab, (l-t)*inv))
}

// The loops below repeat the erf32 body inline instead of calling it: the
// helper's inlining cost (84) is just past the compiler's budget (80), and
// the two calls per sample value are measurable at this loop's scale.
// TestGaussianMass32Columnar pins the loops to GaussianMassScaled32 (which
// calls the helper) bit for bit, so the copies cannot drift silently.
//
// Each loop returns the number of nonzero rows it leaves behind. Narrow
// queries saturate most rows to an exact zero mass within the first few
// dimensions, and multiplying an all-zero tile is a no-op — the fused
// evaluators use the count to stop streaming further dimension columns over
// a dead tile, which is bit-identical to having streamed them.

// GaussianMassFill32 writes into dst[i] the Gaussian interval mass of
// [l, u] for the kernel centered at col[i], all in float32:
// dst[i] = ½·[erf32((u−col[i])·inv) − erf32((l−col[i])·inv)].
// Returns the number of nonzero masses written.
func GaussianMassFill32(dst, col []float32, l, u, inv float32) int {
	v, nz := massVector32(dst, col, l, u, inv, false)
	if v < len(col) {
		nz += gaussianMassFill32Go(dst[v:], col[v:], l, u, inv)
	}
	return nz
}

// GaussianMassMul32 multiplies dst[i] by the float32 Gaussian interval mass
// for col[i], skipping rows whose running product is already zero — the
// same early-exit contract as GaussianMassMul (a zero product stays zero
// even if a later dimension evaluates to NaN). Returns the number of rows
// left nonzero.
func GaussianMassMul32(dst, col []float32, l, u, inv float32) int {
	v, nz := massVector32(dst, col, l, u, inv, true)
	if v < len(col) {
		nz += gaussianMassMul32Go(dst[v:], col[v:], l, u, inv)
	}
	return nz
}

// massVector32 runs the vector loop over the longest 16-row prefix of col
// when the CPU has one, returning the prefix length and its nonzero count
// (0, 0 otherwise).
func massVector32(dst, col []float32, l, u, inv float32, mul bool) (v, nz int) {
	v = len(col) &^ 15
	if !useAVX512 || v == 0 {
		return 0, 0
	}
	_ = dst[len(col)-1] // the assembly writes dst[:v] unchecked
	return v, gaussianMass32AVX512(&dst[0], &col[0], v, l, u, inv, mul)
}

// gaussianMassFill32Go is the pure-Go GaussianMassFill32 loop.
func gaussianMassFill32Go(dst, col []float32, l, u, inv float32) int {
	tab := mathx.Erf32Table()
	_ = dst[len(col)-1]
	nz := 0
	for i, t := range col {
		du, dl := (u-t)*inv, (l-t)*inv
		bu, bl := math.Float32bits(du), math.Float32bits(dl)
		su := math.Float32frombits(bu&sign32 | one32)
		sl := math.Float32frombits(bl&sign32 | one32)
		au := math.Float32frombits(bu &^ sign32)
		al := math.Float32frombits(bl &^ sign32)
		eu, el := su, sl
		if au < mathx.Erf32Tail {
			k := (int(au*mathx.Erf32Scale) & (mathx.Erf32Segs - 1)) * 4
			w := au - (float32(k>>2)+0.5)*(1/mathx.Erf32Scale)
			eu = su * (((tab[k+3]*w+tab[k+2])*w+tab[k+1])*w + tab[k])
		}
		if al < mathx.Erf32Tail {
			k := (int(al*mathx.Erf32Scale) & (mathx.Erf32Segs - 1)) * 4
			w := al - (float32(k>>2)+0.5)*(1/mathx.Erf32Scale)
			el = sl * (((tab[k+3]*w+tab[k+2])*w+tab[k+1])*w + tab[k])
		}
		m := 0.5 * (eu - el)
		dst[i] = m
		if m != 0 {
			nz++
		}
	}
	return nz
}

// gaussianMassMul32Go is the pure-Go GaussianMassMul32 loop.
func gaussianMassMul32Go(dst, col []float32, l, u, inv float32) int {
	tab := mathx.Erf32Table()
	_ = dst[len(col)-1]
	nz := 0
	for i, t := range col {
		if dst[i] == 0 {
			continue
		}
		du, dl := (u-t)*inv, (l-t)*inv
		bu, bl := math.Float32bits(du), math.Float32bits(dl)
		su := math.Float32frombits(bu&sign32 | one32)
		sl := math.Float32frombits(bl&sign32 | one32)
		au := math.Float32frombits(bu &^ sign32)
		al := math.Float32frombits(bl &^ sign32)
		eu, el := su, sl
		if au < mathx.Erf32Tail {
			k := (int(au*mathx.Erf32Scale) & (mathx.Erf32Segs - 1)) * 4
			w := au - (float32(k>>2)+0.5)*(1/mathx.Erf32Scale)
			eu = su * (((tab[k+3]*w+tab[k+2])*w+tab[k+1])*w + tab[k])
		}
		if al < mathx.Erf32Tail {
			k := (int(al*mathx.Erf32Scale) & (mathx.Erf32Segs - 1)) * 4
			w := al - (float32(k>>2)+0.5)*(1/mathx.Erf32Scale)
			el = sl * (((tab[k+3]*w+tab[k+2])*w+tab[k+1])*w + tab[k])
		}
		m := dst[i] * (0.5 * (eu - el))
		if m < massFloor32 && m > -massFloor32 {
			m = 0
		} else {
			nz++
		}
		dst[i] = m
	}
	return nz
}
