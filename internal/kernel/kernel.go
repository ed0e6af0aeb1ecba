// Package kernel implements the kernel functions used by the KDE-based
// selectivity estimators. A multivariate product kernel is assembled from
// one-dimensional kernels, so the interface exposes one-dimensional
// operations: the probability mass a kernel centered at a sample value
// assigns to an interval, and the derivative of that mass with respect to
// the bandwidth (needed for the gradient of the estimation error, paper
// Appendix C.2).
//
// The Gaussian kernel is the paper's default (Appendix A); the Epanechnikov
// kernel is provided as the cheaper, compactly supported alternative the
// paper mentions in §3.1.2.
//
// The columnar Gaussian mass kernels the fused estimators call — the
// exact-mode GaussianMassFill, GaussianMassMul and GaussianMassGradFill
// here (mass64.go, mass64_amd64.s) and the float32 tier's kernels
// (kernel32.go, mass32_amd64.s) — run as AVX-512 loops on CPUs that have
// them, chosen once at init. Each vector loop is bit-identical to its
// pure-Go loop, which stays as the fallback on other CPUs and
// architectures and as the oracle the vector loop is tested against. The
// fast-erf float64 mode has no vector loop.
package kernel

import (
	"math"

	"kdesel/internal/mathx"
)

// Kernel is a one-dimensional, symmetric, differentiable kernel.
type Kernel interface {
	// Name identifies the kernel in logs and experiment output.
	Name() string
	// Mass returns the probability mass that the kernel centered at t with
	// bandwidth h > 0 assigns to the interval [l, u].
	Mass(l, u, t, h float64) float64
	// MassGrad returns the partial derivative of Mass with respect to h.
	MassGrad(l, u, t, h float64) float64
	// Density returns the kernel density (1/h)·K((x-t)/h) at point x.
	Density(x, t, h float64) float64
}

// Gaussian is the standard normal kernel K(x) = (2π)^(-1/2)·exp(-x²/2)
// (paper eq. 9, reduced to one dimension of the product kernel).
type Gaussian struct{}

// Name implements Kernel.
func (Gaussian) Name() string { return "gaussian" }

const (
	invSqrt2   = 0.7071067811865476  // 1/√2
	invSqrt2Pi = 0.39894228040143276 // 1/√(2π)
)

// Mass implements Kernel using the closed form of paper eq. (13):
// ½·[erf((u-t)/(√2·h)) − erf((l-t)/(√2·h))]. The erf evaluations route
// through mathx.Erf so the Exact/Fast switch covers every path; in Exact
// mode (the default) the result is bit-identical to math.Erf.
func (Gaussian) Mass(l, u, t, h float64) float64 {
	return 0.5 * (mathx.Erf((u-t)*invSqrt2/h) - mathx.Erf((l-t)*invSqrt2/h))
}

// MassGrad implements Kernel. Differentiating eq. (13) with
// d/dh erf(c/h) = −2c/(√π·h²)·exp(−(c/h)²) yields
// (1/(√(2π)·h²))·[(l−t)·exp(−(l−t)²/(2h²)) − (u−t)·exp(−(u−t)²/(2h²))],
// the per-dimension factor of paper eq. (17).
func (Gaussian) MassGrad(l, u, t, h float64) float64 {
	dl := l - t
	du := u - t
	h2 := 2 * h * h
	return invSqrt2Pi / (h * h) * (dl*math.Exp(-dl*dl/h2) - du*math.Exp(-du*du/h2))
}

// Density implements Kernel.
func (Gaussian) Density(x, t, h float64) float64 {
	z := (x - t) / h
	return invSqrt2Pi / h * math.Exp(-z*z/2)
}

// GaussianConsts returns the per-dimension constants the fused columnar
// kernels hoist out of their inner loops for bandwidth h: inv = 1/(√2·h)
// (the erf argument scaling of eq. 13), c1 = 1/(√(2π)·h²) and c2 = 1/(2·h²)
// (the prefactor and exponent scaling of the eq. 17 mass derivative).
// Computing them once per query-dimension replaces a division per sample
// point per interval bound with a multiplication.
func GaussianConsts(h float64) (inv, c1, c2 float64) {
	return invSqrt2 / h, invSqrt2Pi / (h * h), 1 / (2 * h * h)
}

// GaussianMassScaled is the scalar form of the fused mass: the Gaussian
// interval mass of [l, u] for the kernel centered at t with the hoisted
// scaling inv = 1/(√2·h). It evaluates the exact expression of the
// GaussianMassFill/GaussianMassMul loops, so single-point and columnar
// results agree bit for bit. fast selects the polynomial erf (callers
// resolve the mathx mode — or a snapshot-pinned copy of it — once per
// evaluation and thread it through).
func GaussianMassScaled(l, u, t, inv float64, fast bool) float64 {
	if fast {
		return 0.5 * (mathx.FastErf((u-t)*inv) - mathx.FastErf((l-t)*inv))
	}
	return 0.5 * (math.Erf((u-t)*inv) - math.Erf((l-t)*inv))
}

// GaussianMassFill writes into dst[i] the Gaussian interval mass of [l, u]
// for the kernel centered at col[i]:
// dst[i] = ½·[erf((u−col[i])·inv) − erf((l−col[i])·inv)], with inv from
// GaussianConsts. The erf mode is an explicit argument (resolved by the
// caller once per evaluation, not per fill), so a whole estimate sees one
// consistent mode even if the process-global switch flips mid-call.
func GaussianMassFill(dst, col []float64, l, u, inv float64, fast bool) {
	switch {
	case fast:
		for i, t := range col {
			dst[i] = 0.5 * (mathx.FastErf((u-t)*inv) - mathx.FastErf((l-t)*inv))
		}
	case useVector64:
		massFill64(dst, col, l, u, inv)
	default:
		gaussianMassFillGo(dst, col, l, u, inv)
	}
}

// GaussianMassMul multiplies dst[i] by the Gaussian interval mass for
// col[i], skipping rows whose running product is already zero — the columnar
// counterpart of the early-exit in the row-major product loop (it also keeps
// a zero product zero even if a later dimension evaluates to NaN, matching
// the row-major short-circuit exactly).
func GaussianMassMul(dst, col []float64, l, u, inv float64, fast bool) {
	switch {
	case fast:
		for i, t := range col {
			if dst[i] != 0 {
				dst[i] *= 0.5 * (mathx.FastErf((u-t)*inv) - mathx.FastErf((l-t)*inv))
			}
		}
	case useVector64:
		massMul64(dst, col, l, u, inv)
	default:
		gaussianMassMulGo(dst, col, l, u, inv)
	}
}

// GaussianMassGradFill writes per-row masses into mdst and eq. 17 mass
// derivatives ∂Mass/∂h into gdst for the kernel centered at col[i], using
// the hoisted constants of GaussianConsts. The mass expression matches
// GaussianMassFill bit for bit so estimate and gradient paths agree.
func GaussianMassGradFill(mdst, gdst, col []float64, l, u, inv, c1, c2 float64, fast bool) {
	switch {
	case fast:
		for i, t := range col {
			dl := l - t
			du := u - t
			mdst[i] = 0.5 * (mathx.FastErf(du*inv) - mathx.FastErf(dl*inv))
			gdst[i] = c1 * (dl*math.Exp(-dl*dl*c2) - du*math.Exp(-du*du*c2))
		}
	case useVector64:
		massGradFill64(mdst, gdst, col, l, u, inv, c1, c2)
	default:
		gaussianMassGradFillGo(mdst, gdst, col, l, u, inv, c1, c2)
	}
}

// gaussianMassFillGo is the pure-Go exact-mode GaussianMassFill loop.
func gaussianMassFillGo(dst, col []float64, l, u, inv float64) {
	for i, t := range col {
		dst[i] = 0.5 * (math.Erf((u-t)*inv) - math.Erf((l-t)*inv))
	}
}

// gaussianMassMulGo is the pure-Go exact-mode GaussianMassMul loop.
func gaussianMassMulGo(dst, col []float64, l, u, inv float64) {
	for i, t := range col {
		if dst[i] != 0 {
			dst[i] *= 0.5 * (math.Erf((u-t)*inv) - math.Erf((l-t)*inv))
		}
	}
}

// gaussianMassGradFillGo is the pure-Go exact-mode GaussianMassGradFill
// loop.
func gaussianMassGradFillGo(mdst, gdst, col []float64, l, u, inv, c1, c2 float64) {
	for i, t := range col {
		dl := l - t
		du := u - t
		mdst[i] = 0.5 * (math.Erf(du*inv) - math.Erf(dl*inv))
		gdst[i] = c1 * (dl*math.Exp(-dl*dl*c2) - du*math.Exp(-du*du*c2))
	}
}

// Epanechnikov is the truncated second-order polynomial kernel
// K(x) = ¾·(1−x²) on [−1, 1]. It is cheaper to evaluate than the Gaussian
// but has compact support, so its mass gradient is only piecewise smooth.
type Epanechnikov struct{}

// Name implements Kernel.
func (Epanechnikov) Name() string { return "epanechnikov" }

// epanCDF is the kernel CDF at z clamped to the support [-1, 1].
func epanCDF(z float64) float64 {
	if z <= -1 {
		return 0
	}
	if z >= 1 {
		return 1
	}
	return 0.5 + 0.75*(z-z*z*z/3)
}

// Mass implements Kernel.
func (Epanechnikov) Mass(l, u, t, h float64) float64 {
	return epanCDF((u-t)/h) - epanCDF((l-t)/h)
}

// MassGrad implements Kernel. For z = (b−t)/h inside the support,
// d/dh CDF(z) = K(z)·(−z/h); outside the support the derivative is zero.
func (Epanechnikov) MassGrad(l, u, t, h float64) float64 {
	grad := 0.0
	if zl := (l - t) / h; zl > -1 && zl < 1 {
		grad += 0.75 * (1 - zl*zl) * zl / h
	}
	if zu := (u - t) / h; zu > -1 && zu < 1 {
		grad -= 0.75 * (1 - zu*zu) * zu / h
	}
	return grad
}

// Density implements Kernel.
func (Epanechnikov) Density(x, t, h float64) float64 {
	z := (x - t) / h
	if z <= -1 || z >= 1 {
		return 0
	}
	return 0.75 * (1 - z*z) / h
}

// ByName returns the kernel registered under name ("gaussian" or
// "epanechnikov") and whether it exists.
func ByName(name string) (Kernel, bool) {
	switch name {
	case "gaussian":
		return Gaussian{}, true
	case "epanechnikov":
		return Epanechnikov{}, true
	}
	return nil, false
}
