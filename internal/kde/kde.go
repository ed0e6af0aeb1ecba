// Package kde implements the mathematical core of multivariate Kernel
// Density Estimation for range selectivity estimation (paper §3.1 and
// Appendices B–C): the closed-form selectivity estimate for rectangular
// regions (eq. 13), the gradient of the estimate with respect to the
// diagonal bandwidth (eq. 17), the gradient of a loss function over query
// feedback (eq. 14), and Scott's rule of thumb (eq. 3).
//
// The sample is held in row-major order (paper §5.1) so that a single point
// occupies one contiguous block, mirroring the single-transfer update path
// of the GPU implementation.
package kde

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"kdesel/internal/kernel"
	"kdesel/internal/loss"
	"kdesel/internal/mathx"
	"kdesel/internal/parallel"
	"kdesel/internal/query"
	"kdesel/internal/stats"
)

// degenerateBandwidth replaces a zero Scott bandwidth on a degenerate
// (constant) sample dimension; any tiny positive value keeps the estimator
// well defined and makes the kernel behave like a point indicator.
const degenerateBandwidth = 1e-3

// Estimator is a multivariate KDE model over a data sample with a diagonal
// bandwidth matrix. It is a plain value holder plus math; sample
// maintenance and device offload live in higher layers. Its methods follow
// the paper's §5 map+reduce decomposition over the sample: every estimate
// and gradient is computed as fixed-size chunk partial sums combined in
// chunk-index order (see internal/parallel), so results are bit-identical
// whether the chunks run serially or on a worker pool of any size.
//
// The estimator itself is not safe for concurrent use (SetBandwidth and
// the retained sample buffer are mutable); the pool-backed internals only
// parallelize within a single call.
type Estimator struct {
	d     int
	kern  kernel.Kernel
	kerns []kernel.Kernel // optional per-dimension kernels (mixed data)
	data  []float64       // row-major s×d
	h     []float64

	// cols is the columnar (structure-of-arrays) mirror of data —
	// cols[j*s+i] == data[i*d+j] — that the fused Gaussian evaluators
	// stream per dimension (see fused.go). It is kept in sync by
	// SetSampleFlat and ReplacePoint; the row-major buffer stays the
	// device-transfer and persistence layout. forceGeneric lets tests pin
	// the generic row-major path for cross-layout validation.
	cols         []float64
	forceGeneric bool

	// Compressed columnar read tier (fused32.go). prec selects the tier the
	// serving entry points (Selectivity, SelectivityBatch) read through;
	// cols32 is the float32 mirror of cols. The tier is rebuilt by
	// SetSampleFlat and patched in place by ReplacePoint, so like cols it is
	// always in sync with data. Gradient, contribution, and density paths
	// always read the float64 buffers regardless of prec: reduced precision
	// is a serving optimization, never a training one.
	prec   mathx.Precision
	cols32 []float32

	// gen counts sample-content generations: SetSampleFlat and ReplacePoint
	// bump it, so Snapshot can tell a bandwidth-only change (share the frozen
	// sample buffers) from a sample mutation (deep-copy them).
	gen uint64

	// erfPinned freezes the Gaussian erf mode for this estimator instead of
	// following the process-global mathx switch. Snapshot sets it on the
	// frozen copy so every estimate served from one snapshot uses one
	// consistent erf implementation, whatever the global switch does.
	erfPinned bool
	erfFast   bool

	pool      *parallel.Pool      // nil = serial execution
	scratch   sync.Pool           // *gradScratch, one per concurrent worker
	fusedPool sync.Pool           // *fusedScratch (fused.go)
	bufs      parallel.BufferPool // chunk partial-sum buffers
}

// fastErf resolves the erf mode for one fused evaluation: the pinned mode on
// snapshot copies, the process-global mathx mode otherwise. Resolving once
// per evaluation (rather than per kernel-fill call) means a single estimate
// can never mix modes even if the global switch flips mid-call.
func (e *Estimator) fastErf() bool {
	if e.erfPinned {
		return e.erfFast
	}
	return mathx.CurrentMode() == mathx.Fast
}

// gradScratch holds the per-worker working set of the gradient map of
// eq. 17: per-dimension masses, mass gradients, and the suffix-product
// array, plus a chunk-local gradient accumulator. fmasses/fgrads are the
// fused path's dimension-major row-tile planes (gradTileRows rows per
// dimension, see fusedGradChunk).
type gradScratch struct {
	masses  []float64
	mgrads  []float64
	suffix  []float64
	pgrad   []float64
	fmasses []float64
	fgrads  []float64
}

func (e *Estimator) getScratch() *gradScratch {
	if s, ok := e.scratch.Get().(*gradScratch); ok {
		return s
	}
	return &gradScratch{
		masses:  make([]float64, e.d),
		mgrads:  make([]float64, e.d),
		suffix:  make([]float64, e.d+1),
		pgrad:   make([]float64, e.d),
		fmasses: make([]float64, e.d*gradTileRows),
		fgrads:  make([]float64, e.d*gradTileRows),
	}
}

func (e *Estimator) putScratch(s *gradScratch) { e.scratch.Put(s) }

// New returns an empty estimator for d-dimensional data using kernel k.
// A nil kernel defaults to the Gaussian.
func New(d int, k kernel.Kernel) (*Estimator, error) {
	if d <= 0 {
		return nil, fmt.Errorf("kde: dimensionality must be positive, got %d", d)
	}
	if k == nil {
		k = kernel.Gaussian{}
	}
	return &Estimator{d: d, kern: k}, nil
}

// Dims returns the dimensionality of the model.
func (e *Estimator) Dims() int { return e.d }

// Size returns the number of sample points s.
func (e *Estimator) Size() int {
	if e.d == 0 {
		return 0
	}
	return len(e.data) / e.d
}

// Kernel returns the kernel function in use. When per-dimension kernels
// are set, this is only the default for dimensions without an override.
func (e *Estimator) Kernel() kernel.Kernel { return e.kern }

// SetPool installs the worker pool used by Selectivity, Contributions,
// SelectivityGradient, and the batch evaluators. A nil pool (the default)
// runs everything serially without spawning goroutines. Because the chunk
// grid and partial-sum combination order are fixed, results are
// bit-identical for every pool size.
func (e *Estimator) SetPool(p *parallel.Pool) { e.pool = p }

// SetWorkers is a convenience wrapper over SetPool: 0 or 1 select serial
// execution, n > 1 selects n workers, and negative values select
// runtime.NumCPU() workers.
func (e *Estimator) SetWorkers(n int) { e.pool = parallel.PoolFor(n) }

// Workers returns the effective worker count (1 when serial).
func (e *Estimator) Workers() int { return e.pool.Workers() }

// Pool returns the installed worker pool (nil when serial), e.g. for
// attaching instrumentation to it.
func (e *Estimator) Pool() *parallel.Pool { return e.pool }

// SetDimensionKernels installs one kernel per dimension, enabling mixed
// continuous/discrete models (future work §8): e.g. Gaussian kernels on
// continuous attributes and Categorical kernels on discrete ones. A nil
// entry keeps the estimator's default kernel for that dimension.
func (e *Estimator) SetDimensionKernels(ks []kernel.Kernel) error {
	if len(ks) != e.d {
		return fmt.Errorf("kde: %d kernels for %d dimensions", len(ks), e.d)
	}
	e.kerns = make([]kernel.Kernel, e.d)
	copy(e.kerns, ks)
	return nil
}

// kernelFor returns the kernel used for dimension j.
func (e *Estimator) kernelFor(j int) kernel.Kernel {
	if e.kerns != nil && e.kerns[j] != nil {
		return e.kerns[j]
	}
	return e.kern
}

// SetSampleRows loads the sample from a slice of points, each of length d.
// The data is copied into the estimator's row-major buffer.
func (e *Estimator) SetSampleRows(rows [][]float64) error {
	data := make([]float64, 0, len(rows)*e.d)
	for i, row := range rows {
		if len(row) != e.d {
			return fmt.Errorf("kde: sample row %d has %d dims, want %d", i, len(row), e.d)
		}
		data = append(data, row...)
	}
	return e.SetSampleFlat(data)
}

// SetSampleFlat loads a row-major sample buffer. The buffer is retained, not
// copied; callers that need isolation should pass a copy. The columnar
// mirror of the fused evaluators is rebuilt from it.
func (e *Estimator) SetSampleFlat(data []float64) error {
	if len(data) == 0 || len(data)%e.d != 0 {
		return fmt.Errorf("kde: flat sample length %d is not a positive multiple of d=%d", len(data), e.d)
	}
	e.data = data
	e.rebuildColumns()
	e.rebuildTiers()
	e.gen++
	return nil
}

// SampleFlat exposes the retained row-major sample buffer for reading
// (device transfers, persistence). Mutations must go through ReplacePoint
// or SetSampleFlat so the columnar mirror stays in sync; writing through
// this slice directly leaves the fused evaluators reading stale columns.
func (e *Estimator) SampleFlat() []float64 { return e.data }

// Point returns the i-th sample point as a subslice of the retained buffer.
func (e *Estimator) Point(i int) []float64 { return e.data[i*e.d : (i+1)*e.d] }

// ReplacePoint overwrites sample point i with p (length d).
func (e *Estimator) ReplacePoint(i int, p []float64) error {
	if len(p) != e.d {
		return fmt.Errorf("kde: replacement point has %d dims, want %d", len(p), e.d)
	}
	if i < 0 || i >= e.Size() {
		return fmt.Errorf("kde: point index %d out of range [0,%d)", i, e.Size())
	}
	copy(e.data[i*e.d:(i+1)*e.d], p)
	s := e.Size()
	for j, v := range p {
		e.cols[j*s+i] = v
	}
	e.replaceTierPoint(i, p)
	e.gen++
	return nil
}

// Bandwidth returns a copy of the current bandwidth vector.
func (e *Estimator) Bandwidth() []float64 {
	h := make([]float64, len(e.h))
	copy(h, e.h)
	return h
}

// SetBandwidth sets the diagonal bandwidth. All entries must be positive
// and finite.
func (e *Estimator) SetBandwidth(h []float64) error {
	if len(h) != e.d {
		return fmt.Errorf("kde: bandwidth has %d dims, want %d", len(h), e.d)
	}
	for i, v := range h {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("kde: bandwidth[%d] = %g is not positive and finite", i, v)
		}
	}
	if e.h == nil {
		e.h = make([]float64, e.d)
	}
	copy(e.h, h)
	return nil
}

// UseScottBandwidth initializes the bandwidth with Scott's rule (eq. 3) from
// the loaded sample.
func (e *Estimator) UseScottBandwidth() error {
	if e.Size() == 0 {
		return errors.New("kde: cannot apply Scott's rule to an empty sample")
	}
	return e.SetBandwidth(ScottBandwidth(e.data, e.d))
}

// ScottBandwidth computes Scott's rule h_i = s^(-1/(d+4))·σ_i (paper eq. 3)
// from a row-major sample. Degenerate dimensions (σ = 0) receive a tiny
// positive bandwidth to keep the model valid.
func ScottBandwidth(data []float64, d int) []float64 {
	s := len(data) / d
	factor := math.Pow(float64(s), -1.0/float64(d+4))
	stds := stats.ColumnStds(data, d)
	h := make([]float64, d)
	for i, sd := range stds {
		h[i] = factor * sd
		if !(h[i] > 0) {
			h[i] = degenerateBandwidth
		}
	}
	return h
}

func (e *Estimator) checkReady(q query.Range) error {
	if e.Size() == 0 {
		return errors.New("kde: no sample loaded")
	}
	if e.h == nil {
		return errors.New("kde: no bandwidth set")
	}
	if q.Dims() != e.d {
		return fmt.Errorf("kde: query has %d dims, want %d", q.Dims(), e.d)
	}
	return e.checkQuery(q)
}

func (e *Estimator) checkQuery(q query.Range) error { return q.Validate() }

// pointMass returns the individual probability mass contribution
// p̂_H^(i)(Ω) of sample point row (eq. 13): the product over dimensions of
// the one-dimensional kernel masses.
func (e *Estimator) pointMass(row []float64, q query.Range) float64 {
	m := 1.0
	for j := 0; j < e.d; j++ {
		m *= e.kernelFor(j).Mass(q.Lo[j], q.Hi[j], row[j], e.h[j])
		if m == 0 {
			return 0
		}
	}
	return m
}

// PointContribution returns the individual probability mass contribution of
// sample point i to query q (eq. 13, before averaging). It evaluates with
// the same (fused or generic) arithmetic as Contributions, so the returned
// value is bit-identical to the corresponding buffer entry.
func (e *Estimator) PointContribution(i int, q query.Range) float64 {
	if e.fusedOK() {
		return e.fusedPointMass(e.Point(i), q)
	}
	return e.pointMass(e.Point(i), q)
}

// massChunk is the eq. 13 map over sample rows [lo, hi): the chunk's
// partial sum of individual point contributions, accumulated in row order.
func (e *Estimator) massChunk(q query.Range, lo, hi int) float64 {
	sum := 0.0
	for i := lo; i < hi; i++ {
		sum += e.pointMass(e.data[i*e.d:(i+1)*e.d], q)
	}
	return sum
}

// Selectivity estimates the selectivity of q as the average individual
// contribution over all sample points (eq. 2 with eq. 13), reduced as
// fixed-size chunk partial sums combined in chunk-index order.
func (e *Estimator) Selectivity(q query.Range) (float64, error) {
	if err := e.checkReady(q); err != nil {
		return 0, err
	}
	if e.fusedOK() {
		if e.servePrecision() == mathx.Float32 {
			return e.fusedSelectivity32(q), nil
		}
		return e.fusedSelectivity(q, nil), nil
	}
	s := e.Size()
	total := 0.0
	if e.pool.Workers() <= 1 {
		for c, nc := 0, parallel.Chunks(s); c < nc; c++ {
			lo, hi := parallel.ChunkBounds(c, s)
			total += e.massChunk(q, lo, hi)
		}
		return total / float64(s), nil
	}
	nc := parallel.Chunks(s)
	partials := e.bufs.Get(nc)
	e.pool.Run(s, func(c, lo, hi int) {
		partials[c] = e.massChunk(q, lo, hi)
	})
	for _, v := range partials {
		total += v
	}
	e.bufs.Put(partials)
	return total / float64(s), nil
}

// Contributions fills buf (length ≥ s, allocated if nil or short) with the
// per-point contributions to q and returns the buffer and the resulting
// selectivity estimate. The retained buffer is what the GPU implementation
// keeps resident for the karma-based sample maintenance (paper §5.4).
func (e *Estimator) Contributions(q query.Range, buf []float64) ([]float64, float64, error) {
	if err := e.checkReady(q); err != nil {
		return nil, 0, err
	}
	s := e.Size()
	if cap(buf) < s {
		buf = make([]float64, s)
	}
	buf = buf[:s]
	if e.fusedOK() {
		return buf, e.fusedSelectivity(q, buf), nil
	}
	sum := 0.0
	if e.pool.Workers() <= 1 {
		for c, nc := 0, parallel.Chunks(s); c < nc; c++ {
			lo, hi := parallel.ChunkBounds(c, s)
			sum += e.contribChunk(q, lo, hi, buf)
		}
		return buf, sum / float64(s), nil
	}
	nc := parallel.Chunks(s)
	partials := e.bufs.Get(nc)
	e.pool.Run(s, func(c, lo, hi int) {
		partials[c] = e.contribChunk(q, lo, hi, buf)
	})
	for _, v := range partials {
		sum += v
	}
	e.bufs.Put(partials)
	return buf, sum / float64(s), nil
}

// contribChunk fills buf[lo:hi] with the per-point contributions of sample
// rows [lo, hi) and returns their partial sum, accumulated in row order.
// Distinct chunks write disjoint ranges of buf, so chunks can run
// concurrently.
func (e *Estimator) contribChunk(q query.Range, lo, hi int, buf []float64) float64 {
	sum := 0.0
	for i := lo; i < hi; i++ {
		c := e.pointMass(e.data[i*e.d:(i+1)*e.d], q)
		buf[i] = c
		sum += c
	}
	return sum
}

// gradChunk runs the eq. 17 map over sample rows [lo, hi): it zeroes pgrad
// (length d), accumulates the chunk's gradient partial sums into it in row
// order, and returns the chunk's estimate partial sum. The
// leave-one-dimension-out products ∏_{k≠i} are formed with prefix and
// suffix products so no division by a possibly-zero mass occurs.
func (e *Estimator) gradChunk(q query.Range, lo, hi int, scr *gradScratch, pgrad []float64) float64 {
	d := e.d
	for j := range pgrad {
		pgrad[j] = 0
	}
	sum := 0.0
	for p := lo; p < hi; p++ {
		sum += e.gradPoint(e.data[p*d:(p+1)*d], q, scr, pgrad)
	}
	return sum
}

// gradPoint computes one sample row's eq. 17 contribution to query q: the
// row's probability mass is returned and its per-dimension gradient terms
// are accumulated into pgrad.
func (e *Estimator) gradPoint(row []float64, q query.Range, scr *gradScratch, pgrad []float64) float64 {
	d := e.d
	masses, mgrads, suffix := scr.masses, scr.mgrads, scr.suffix
	for j := 0; j < d; j++ {
		k := e.kernelFor(j)
		masses[j] = k.Mass(q.Lo[j], q.Hi[j], row[j], e.h[j])
		mgrads[j] = k.MassGrad(q.Lo[j], q.Hi[j], row[j], e.h[j])
	}
	suffix[d] = 1
	for j := d - 1; j >= 0; j-- {
		suffix[j] = suffix[j+1] * masses[j]
	}
	prefix := 1.0
	for j := 0; j < d; j++ {
		pgrad[j] += mgrads[j] * prefix * suffix[j+1]
		prefix *= masses[j]
	}
	return suffix[0]
}

// SelectivityGradient computes the estimate for q and the gradient
// ∂p̂/∂h_i of the estimate with respect to each bandwidth component
// (eqs. 15–17), written into grad (length d). It returns the estimate.
//
// Like Selectivity, the reduction is chunked: per-chunk partial sums (one
// estimate partial plus d gradient partials) are combined in chunk-index
// order, so serial and parallel execution agree bit for bit. The serial
// path reuses pooled scratch and performs no allocations in steady state.
func (e *Estimator) SelectivityGradient(q query.Range, grad []float64) (float64, error) {
	if len(grad) != e.d {
		return 0, fmt.Errorf("kde: gradient buffer has %d dims, want %d", len(grad), e.d)
	}
	if err := e.checkReady(q); err != nil {
		return 0, err
	}
	s := e.Size()
	d := e.d
	for i := range grad {
		grad[i] = 0
	}
	if e.fusedOK() {
		return e.fusedSelectivityGradient(q, grad), nil
	}
	sum := 0.0
	if e.pool.Workers() <= 1 {
		scr := e.getScratch()
		for c, nc := 0, parallel.Chunks(s); c < nc; c++ {
			lo, hi := parallel.ChunkBounds(c, s)
			sum += e.gradChunk(q, lo, hi, scr, scr.pgrad)
			for j := 0; j < d; j++ {
				grad[j] += scr.pgrad[j]
			}
		}
		e.putScratch(scr)
	} else {
		nc := parallel.Chunks(s)
		partials := e.bufs.Get(nc * (d + 1))
		e.pool.Run(s, func(c, lo, hi int) {
			scr := e.getScratch()
			row := partials[c*(d+1) : (c+1)*(d+1)]
			row[0] = e.gradChunk(q, lo, hi, scr, row[1:])
			e.putScratch(scr)
		})
		for c := 0; c < nc; c++ {
			row := partials[c*(d+1) : (c+1)*(d+1)]
			sum += row[0]
			for j := 0; j < d; j++ {
				grad[j] += row[1+j]
			}
		}
		e.bufs.Put(partials)
	}
	inv := 1 / float64(s)
	for j := range grad {
		grad[j] *= inv
	}
	return sum * inv, nil
}

// LossGradient computes, for one feedback record, the estimate, the loss,
// and the gradient ∇_H L of the loss with respect to the bandwidth
// (eq. 14: the loss derivative times the estimator derivative), written
// into grad (length d).
func (e *Estimator) LossGradient(fb query.Feedback, lf loss.Function, grad []float64) (est, lval float64, err error) {
	est, err = e.SelectivityGradient(fb.Query, grad)
	if err != nil {
		return 0, 0, err
	}
	lval = lf.Loss(est, fb.Actual)
	dl := lf.Deriv(est, fb.Actual)
	for j := range grad {
		grad[j] *= dl
	}
	return est, lval, nil
}

// SelectivityBatch estimates every query of qs in a single pass over the
// sample, writing the estimates into ests (length len(qs)). One sample
// traversal is amortized across all queries — each row is loaded once and
// scored against every query — which is far friendlier to the cache than
// query-at-a-time evaluation when the sample outgrows L2. Results are
// bit-identical to calling Selectivity per query, for any worker count.
func (e *Estimator) SelectivityBatch(qs []query.Range, ests []float64) error {
	nq := len(qs)
	if len(ests) != nq {
		return fmt.Errorf("kde: estimate buffer has %d entries, want %d", len(ests), nq)
	}
	for i := range qs {
		if err := e.checkReady(qs[i]); err != nil {
			return fmt.Errorf("kde: batch query %d: %w", i, err)
		}
	}
	if nq == 0 {
		return nil
	}
	if e.fusedOK() {
		if e.servePrecision() == mathx.Float32 {
			e.fusedSelectivityBatch32(qs, ests)
			return nil
		}
		e.fusedSelectivityBatch(qs, ests)
		return nil
	}
	s := e.Size()
	nc := parallel.Chunks(s)
	partials := e.bufs.Get(nc * nq)
	e.genericBatchPartials(qs, partials)
	for iq := 0; iq < nq; iq++ {
		sum := 0.0
		for c := 0; c < nc; c++ {
			sum += partials[c*nq+iq]
		}
		ests[iq] = sum / float64(s)
	}
	e.bufs.Put(partials)
	return nil
}

// genericBatchPartials fills partials[c*nq+iq] with chunk c's unnormalized
// mass sum for query iq through the row-major generic path — the shared
// partial-fill stage behind SelectivityBatch and SelectivityBatchPartials.
// Each chunk's slice is zeroed in the chunk body before accumulation, so
// caller-provided buffers need no pre-zeroing.
func (e *Estimator) genericBatchPartials(qs []query.Range, partials []float64) {
	nq := len(qs)
	e.pool.Run(e.Size(), func(c, lo, hi int) {
		pr := partials[c*nq : (c+1)*nq]
		for iq := range pr {
			pr[iq] = 0
		}
		for i := lo; i < hi; i++ {
			row := e.data[i*e.d : (i+1)*e.d]
			for iq := 0; iq < nq; iq++ {
				pr[iq] += e.pointMass(row, qs[iq])
			}
		}
	})
}

// SelectivityBatchPartials runs the batched estimate pass but stops before
// the reduction: partials (length parallel.Chunks(Size())·len(qs)) receives
// every chunk's unnormalized mass sum, laid out partials[c*nq+iq] for chunk
// c and query iq. The estimate of qs[iq] is Σ_c partials[c*nq+iq] / Size(),
// summed in ascending chunk order — exactly the reduction SelectivityBatch
// performs. Exposing the partials lets a sharded estimator interleave
// per-shard chunk sums into the global chunk order and reproduce the
// single-estimator float-addition sequence bit for bit (internal/shard).
// The dispatch (fused / compressed tier / generic) matches SelectivityBatch.
func (e *Estimator) SelectivityBatchPartials(qs []query.Range, partials []float64) error {
	nq := len(qs)
	for i := range qs {
		if err := e.checkReady(qs[i]); err != nil {
			return fmt.Errorf("kde: batch query %d: %w", i, err)
		}
	}
	if want := parallel.Chunks(e.Size()) * nq; len(partials) != want {
		return fmt.Errorf("kde: partials buffer has %d entries, want %d", len(partials), want)
	}
	if nq == 0 {
		return nil
	}
	if e.fusedOK() {
		if e.servePrecision() == mathx.Float32 {
			e.fusedBatchPartials32(qs, partials)
			return nil
		}
		e.fusedBatchPartials(qs, partials)
		return nil
	}
	e.genericBatchPartials(qs, partials)
	return nil
}

// GradientBatchPartials is the gradient counterpart of
// SelectivityBatchPartials: partials (length
// parallel.Chunks(Size())·len(qs)·(Dims()+1)) receives, at
// partials[(c*nq+iq)*(d+1)], chunk c's unnormalized mass sum for query iq
// followed by its d unnormalized bandwidth-gradient terms. GradientBatch's
// results are recovered by summing each slot in ascending chunk order and
// scaling by 1/Size(). The dispatch (fused / generic) matches GradientBatch;
// gradients always read the float64 buffers regardless of precision tier.
func (e *Estimator) GradientBatchPartials(qs []query.Range, partials []float64) error {
	nq := len(qs)
	for i := range qs {
		if err := e.checkReady(qs[i]); err != nil {
			return fmt.Errorf("kde: batch query %d: %w", i, err)
		}
	}
	if want := parallel.Chunks(e.Size()) * nq * (e.d + 1); len(partials) != want {
		return fmt.Errorf("kde: partials buffer has %d entries, want %d", len(partials), want)
	}
	if nq == 0 {
		return nil
	}
	if e.fusedOK() {
		e.fusedGradPartials(qs, partials)
		return nil
	}
	e.genericGradPartials(qs, partials)
	return nil
}

// GradientBatch computes, for every query of qs in a single pass over the
// sample, the selectivity estimate and the bandwidth gradient ∂p̂/∂h
// (eq. 17): ests[i] receives the estimate of qs[i] and grads[i*d:(i+1)*d]
// its gradient. Like SelectivityBatch, the sample is traversed once for
// all queries, and results are bit-identical to calling
// SelectivityGradient per query, for any worker count.
func (e *Estimator) GradientBatch(qs []query.Range, ests, grads []float64) error {
	nq := len(qs)
	d := e.d
	if len(ests) != nq {
		return fmt.Errorf("kde: estimate buffer has %d entries, want %d", len(ests), nq)
	}
	if len(grads) != nq*d {
		return fmt.Errorf("kde: gradient buffer has %d entries, want %d", len(grads), nq*d)
	}
	for i := range qs {
		if err := e.checkReady(qs[i]); err != nil {
			return fmt.Errorf("kde: batch query %d: %w", i, err)
		}
	}
	if nq == 0 {
		return nil
	}
	if e.fusedOK() {
		e.fusedGradientBatch(qs, ests, grads)
		return nil
	}
	s := e.Size()
	stride := d + 1
	nc := parallel.Chunks(s)
	partials := e.bufs.Get(nc * nq * stride)
	e.genericGradPartials(qs, partials)
	inv := 1 / float64(s)
	for iq := 0; iq < nq; iq++ {
		sum := 0.0
		g := grads[iq*d : (iq+1)*d]
		for j := range g {
			g[j] = 0
		}
		for c := 0; c < nc; c++ {
			pr := partials[(c*nq+iq)*stride:][:stride]
			sum += pr[0]
			for j := 0; j < d; j++ {
				g[j] += pr[1+j]
			}
		}
		for j := 0; j < d; j++ {
			g[j] *= inv
		}
		ests[iq] = sum * inv
	}
	e.bufs.Put(partials)
	return nil
}

// genericGradPartials fills the GradientBatchPartials layout through the
// row-major generic path — the shared partial-fill stage behind
// GradientBatch and GradientBatchPartials. Each chunk's slice is zeroed in
// the chunk body, so caller-provided buffers need no pre-zeroing.
func (e *Estimator) genericGradPartials(qs []query.Range, partials []float64) {
	nq := len(qs)
	d := e.d
	stride := d + 1
	e.pool.Run(e.Size(), func(c, lo, hi int) {
		scr := e.getScratch()
		base := partials[c*nq*stride : (c+1)*nq*stride]
		for i := range base {
			base[i] = 0
		}
		for p := lo; p < hi; p++ {
			row := e.data[p*d : (p+1)*d]
			for iq := 0; iq < nq; iq++ {
				pr := base[iq*stride : (iq+1)*stride]
				pr[0] += e.gradPoint(row, qs[iq], scr, pr[1:])
			}
		}
		e.putScratch(scr)
	})
}

// Objective returns the training objective of optimization problem (5) for
// a fixed sample, kernel, and feedback set: a function that evaluates the
// average loss at bandwidth h and, when grad is non-nil, writes the average
// loss gradient into it. The returned closure is what the numerical
// optimizers consume.
func Objective(data []float64, d int, k kernel.Kernel, fbs []query.Feedback, lf loss.Function) func(h, grad []float64) float64 {
	if k == nil {
		k = kernel.Gaussian{}
	}
	scratch, _ := New(d, k)
	// The closure reuses one estimator and swaps bandwidths; data is shared.
	_ = scratch.SetSampleFlat(data)
	pgrad := make([]float64, d)
	return func(h, grad []float64) float64 {
		if err := scratch.SetBandwidth(h); err != nil {
			// Out-of-domain bandwidths get an infinite objective so bounded
			// optimizers reject the step.
			if grad != nil {
				for j := range grad {
					grad[j] = 0
				}
			}
			return math.Inf(1)
		}
		if grad != nil {
			for j := range grad {
				grad[j] = 0
			}
		}
		total := 0.0
		for _, fb := range fbs {
			if grad == nil {
				est, err := scratch.Selectivity(fb.Query)
				if err != nil {
					return math.Inf(1)
				}
				total += lf.Loss(est, fb.Actual)
				continue
			}
			_, lval, err := scratch.LossGradient(fb, lf, pgrad)
			if err != nil {
				return math.Inf(1)
			}
			total += lval
			for j := range grad {
				grad[j] += pgrad[j]
			}
		}
		n := float64(len(fbs))
		if grad != nil {
			for j := range grad {
				grad[j] /= n
			}
		}
		return total / n
	}
}

// ObjectiveBatch returns the same training objective as Objective — same
// value, same gradient, bit for bit — but evaluates all training feedbacks
// in one batched pass over the sample per call (SelectivityBatch /
// GradientBatch), optionally parallelized on pool. One sample traversal is
// amortized across every query, which is what MLSL + L-BFGS-B hammer
// during batch bandwidth selection; a nil pool still gets the
// single-traversal cache locality.
func ObjectiveBatch(data []float64, d int, k kernel.Kernel, fbs []query.Feedback, lf loss.Function, pool *parallel.Pool) func(h, grad []float64) float64 {
	if k == nil {
		k = kernel.Gaussian{}
	}
	scratch, _ := New(d, k)
	// The closure reuses one estimator and swaps bandwidths; data is shared.
	_ = scratch.SetSampleFlat(data)
	scratch.SetPool(pool)
	qs := make([]query.Range, len(fbs))
	for i, fb := range fbs {
		qs[i] = fb.Query
	}
	ests := make([]float64, len(fbs))
	grads := make([]float64, len(fbs)*d)
	return func(h, grad []float64) float64 {
		if grad != nil {
			for j := range grad {
				grad[j] = 0
			}
		}
		if err := scratch.SetBandwidth(h); err != nil {
			// Out-of-domain bandwidths get an infinite objective so bounded
			// optimizers reject the step.
			return math.Inf(1)
		}
		n := float64(len(fbs))
		total := 0.0
		if grad == nil {
			if err := scratch.SelectivityBatch(qs, ests); err != nil {
				return math.Inf(1)
			}
			for i, fb := range fbs {
				total += lf.Loss(ests[i], fb.Actual)
			}
			return total / n
		}
		if err := scratch.GradientBatch(qs, ests, grads); err != nil {
			return math.Inf(1)
		}
		for i, fb := range fbs {
			total += lf.Loss(ests[i], fb.Actual)
			dl := lf.Deriv(ests[i], fb.Actual)
			g := grads[i*d : (i+1)*d]
			for j := range grad {
				grad[j] += g[j] * dl
			}
		}
		for j := range grad {
			grad[j] /= n
		}
		return total / n
	}
}

// Density evaluates the probability density p̂_H(x) at point x (eq. 1),
// useful for validating the model against known distributions.
func (e *Estimator) Density(x []float64) (float64, error) {
	if e.Size() == 0 {
		return 0, errors.New("kde: no sample loaded")
	}
	if e.h == nil {
		return 0, errors.New("kde: no bandwidth set")
	}
	if len(x) != e.d {
		return 0, fmt.Errorf("kde: point has %d dims, want %d", len(x), e.d)
	}
	s := e.Size()
	sum := 0.0
	for i := 0; i < s; i++ {
		row := e.data[i*e.d : (i+1)*e.d]
		dens := 1.0
		for j := 0; j < e.d; j++ {
			dens *= e.kernelFor(j).Density(x[j], row[j], e.h[j])
			if dens == 0 {
				break
			}
		}
		sum += dens
	}
	return sum / float64(s), nil
}

// Clone returns a deep copy of the estimator (sample and bandwidth buffers
// are copied; the worker pool, which is stateless, is shared).
func (e *Estimator) Clone() *Estimator {
	out := &Estimator{d: e.d, kern: e.kern, pool: e.pool, forceGeneric: e.forceGeneric, prec: e.prec}
	if e.kerns != nil {
		out.kerns = make([]kernel.Kernel, len(e.kerns))
		copy(out.kerns, e.kerns)
	}
	out.data = make([]float64, len(e.data))
	copy(out.data, e.data)
	if len(out.data) > 0 {
		out.rebuildColumns()
		out.rebuildTiers()
	}
	if e.h != nil {
		out.h = make([]float64, len(e.h))
		copy(out.h, e.h)
	}
	return out
}
