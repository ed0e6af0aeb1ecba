package gpu

import (
	"errors"
	"fmt"
	"math"

	"kdesel/internal/kernel"
	"kdesel/internal/mathx"
	"kdesel/internal/query"
	"kdesel/internal/sample"
)

// Engine realizes the estimator pipeline of paper Figure 3 on a simulated
// device. The sample buffer and the per-point contribution buffer live on
// the device; per query, only the bounds travel to the device and only the
// estimate (plus, for the adaptive estimator, the d-component gradient)
// travels back. The contribution buffer is retained after every estimate so
// the karma maintenance can run without re-computation (§5.4, §5.6).
type Engine struct {
	dev  *Device
	d    int
	s    int
	kern kernel.Kernel

	sampleBuf  *Buffer // s×d row-major, resident
	contribBuf *Buffer // s, resident; refreshed per estimate
	gradBuf    *Buffer // s×d partial gradient contributions
	boundsBuf  *Buffer // 2d query bounds
	hBuf       *Buffer // d bandwidth

	h       []float64 // host mirror of the device bandwidth
	hasEst  bool      // contribBuf holds contributions of lastQ
	lastQ   query.Range
	lastEst float64

	// Batch-path buffers (EstimateBatch), grown lazily to the largest batch
	// seen: the 2d·nq bounds tile, the s·nq query-major contribution planes,
	// and the s-value packing column the per-query reductions run over.
	batchBoundsBuf  *Buffer
	batchContribBuf *Buffer
	batchColBuf     *Buffer

	// prec narrows the serving-path bounds-tile transfers: with a reduced
	// precision configured, EstimateBatch ships its bounds through
	// CopyToDevice32 at half the bytes. See SetPrecision.
	prec mathx.Precision
}

// NewEngine creates an engine for a d-dimensional sample, transferring the
// row-major sample to the device — the single large transfer of the
// estimator's lifetime (§5.2).
func NewEngine(dev *Device, d int, kern kernel.Kernel, sampleFlat []float64) (*Engine, error) {
	if dev == nil {
		return nil, errors.New("gpu: nil device")
	}
	if d <= 0 {
		return nil, fmt.Errorf("gpu: dimensionality must be positive, got %d", d)
	}
	if len(sampleFlat) == 0 || len(sampleFlat)%d != 0 {
		return nil, fmt.Errorf("gpu: sample length %d is not a positive multiple of d=%d", len(sampleFlat), d)
	}
	if kern == nil {
		kern = kernel.Gaussian{}
	}
	s := len(sampleFlat) / d
	e := &Engine{
		dev:        dev,
		d:          d,
		s:          s,
		kern:       kern,
		sampleBuf:  dev.Alloc(s * d),
		contribBuf: dev.Alloc(s),
		gradBuf:    dev.Alloc(s * d),
		boundsBuf:  dev.Alloc(2 * d),
		hBuf:       dev.Alloc(d),
		h:          make([]float64, d),
	}
	if err := dev.CopyToDevice(e.sampleBuf, 0, sampleFlat); err != nil {
		return nil, err
	}
	return e, nil
}

// Device returns the engine's device.
func (e *Engine) Device() *Device { return e.dev }

// SetPrecision configures the serving precision of the batch estimate
// path: with Float32, EstimateBatch bounds tiles transfer as float32 lanes
// (4 bytes per value, rounding the bounds through float32). The
// single-query Estimate/Gradient path is unaffected: it feeds the
// feedback and karma maintenance loop, which stays float64 end to end,
// mirroring the host tiers (reduced precision is a serving optimization,
// never a training one).
func (e *Engine) SetPrecision(p mathx.Precision) { e.prec = p }

// Precision returns the configured serving precision.
func (e *Engine) Precision() mathx.Precision { return e.prec }

// Size returns the sample size s.
func (e *Engine) Size() int { return e.s }

// Dims returns the dimensionality d.
func (e *Engine) Dims() int { return e.d }

// Bandwidth returns a host copy of the current bandwidth.
func (e *Engine) Bandwidth() []float64 {
	out := make([]float64, e.d)
	copy(out, e.h)
	return out
}

// SetBandwidth transfers a new bandwidth vector to the device (d values,
// one small transfer — step 8 of Figure 3).
func (e *Engine) SetBandwidth(h []float64) error {
	if len(h) != e.d {
		return fmt.Errorf("gpu: bandwidth has %d dims, want %d", len(h), e.d)
	}
	for i, v := range h {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("gpu: bandwidth[%d] = %g is not positive and finite", i, v)
		}
	}
	copy(e.h, h)
	e.hasEst = false
	return e.dev.CopyToDevice(e.hBuf, 0, h)
}

// ScottBandwidth computes Scott's rule on the device (§5.2): per dimension,
// the sums of values and squared values are produced by map kernels and
// parallel binary reductions, and the host combines them via
// σ² = Σx²/n − (Σx/n)². The resulting bandwidth is installed and returned.
func (e *Engine) ScottBandwidth() ([]float64, error) {
	h := make([]float64, e.d)
	factor := math.Pow(float64(e.s), -1.0/float64(e.d+4))
	colBuf := e.dev.Alloc(e.s)
	smp := e.sampleBuf.slice()
	for j := 0; j < e.d; j++ {
		col := colBuf.slice()
		e.dev.Launch(e.s, 1, func(i int) { col[i] = smp[i*e.d+j] })
		sum, err := e.dev.Reduce(colBuf, e.s)
		if err != nil {
			return nil, err
		}
		e.dev.Launch(e.s, 1, func(i int) { col[i] = smp[i*e.d+j] * smp[i*e.d+j] })
		sumSq, err := e.dev.Reduce(colBuf, e.s)
		if err != nil {
			return nil, err
		}
		// Two scalars return to the host per dimension.
		e.dev.ChargeBits(2*64, false)
		n := float64(e.s)
		v := sumSq/n - (sum/n)*(sum/n)
		if v < 0 {
			v = 0
		}
		h[j] = factor * math.Sqrt(v)
		if !(h[j] > 0) {
			h[j] = 1e-3
		}
	}
	if err := e.SetBandwidth(h); err != nil {
		return nil, err
	}
	return e.Bandwidth(), nil
}

func (e *Engine) transferBounds(q query.Range) error {
	if q.Dims() != e.d {
		return fmt.Errorf("gpu: query has %d dims, want %d", q.Dims(), e.d)
	}
	if err := q.Validate(); err != nil {
		return err
	}
	bounds := make([]float64, 2*e.d)
	copy(bounds[:e.d], q.Lo)
	copy(bounds[e.d:], q.Hi)
	return e.dev.CopyToDevice(e.boundsBuf, 0, bounds) // step 1 of Figure 3
}

// Estimate computes the selectivity of q: bounds to device (1), per-point
// contribution kernel (2), binary reduction (3), estimate back to host (4).
// The contribution buffer is retained for maintenance.
func (e *Engine) Estimate(q query.Range) (float64, error) {
	if err := e.transferBounds(q); err != nil {
		return 0, err
	}
	smp := e.sampleBuf.slice()
	contrib := e.contribBuf.slice()
	bounds := e.boundsBuf.slice()
	h := e.hBuf.slice()
	kern := e.kern
	d := e.d
	e.dev.Launch(e.s, float64(d), func(i int) {
		row := smp[i*d : (i+1)*d]
		m := 1.0
		for j := 0; j < d; j++ {
			m *= kern.Mass(bounds[j], bounds[d+j], row[j], h[j])
			if m == 0 {
				break
			}
		}
		contrib[i] = m
	})
	sum, err := e.dev.Reduce(e.contribBuf, e.s)
	if err != nil {
		return 0, err
	}
	est := sum / float64(e.s)
	// One scalar returns to the host.
	e.dev.ChargeBits(64, false)
	e.hasEst = true
	e.lastQ = q.Clone()
	e.lastEst = est
	return est, nil
}

// EstimateBatch computes the selectivity of every query of qs with one
// bounds-tile transfer and one contribution launch for the whole batch —
// the device-side counterpart of the serve-layer coalescer. Query-at-a-time
// evaluation pays the PCIe round-trip latency per query (§5.2); here the
// 2d·nq bounds tile crosses once, one kernel of complexity d·nq scores
// every sample row against every query, and only nq scalars return.
//
// Each query's contributions are packed into a scratch column and reduced
// with the same pairwise tree over the same values as a single-query
// Estimate, so batch estimates are bit-identical to calling Estimate per
// query. The single-query retention state (contribBuf, lastQ) is left
// untouched: karma maintenance keys on the feedback path's own Estimate.
func (e *Engine) EstimateBatch(qs []query.Range, ests []float64) error {
	nq := len(qs)
	if len(ests) != nq {
		return fmt.Errorf("gpu: estimate buffer has %d entries, want %d", len(ests), nq)
	}
	for i := range qs {
		if qs[i].Dims() != e.d {
			return fmt.Errorf("gpu: batch query %d has %d dims, want %d", i, qs[i].Dims(), e.d)
		}
		if err := qs[i].Validate(); err != nil {
			return fmt.Errorf("gpu: batch query %d: %w", i, err)
		}
	}
	if nq == 0 {
		return nil
	}
	if e.batchBoundsBuf == nil || e.batchBoundsBuf.Len() < 2*e.d*nq {
		e.batchBoundsBuf = e.dev.Alloc(2 * e.d * nq)
	}
	if e.batchContribBuf == nil || e.batchContribBuf.Len() < e.s*nq {
		e.batchContribBuf = e.dev.Alloc(e.s * nq)
	}
	if e.batchColBuf == nil {
		e.batchColBuf = e.dev.Alloc(e.s)
	}
	// One transfer: the whole batch's bounds, query-major [lo|hi] pairs.
	tile := make([]float64, 2*e.d*nq)
	for iq, q := range qs {
		o := iq * 2 * e.d
		copy(tile[o:o+e.d], q.Lo)
		copy(tile[o+e.d:o+2*e.d], q.Hi)
	}
	if e.prec != mathx.Float64 {
		// Compressed serving tier: bounds cross the bus as float32 lanes.
		if err := e.dev.CopyToDevice32(e.batchBoundsBuf, 0, tile); err != nil {
			return err
		}
	} else if err := e.dev.CopyToDevice(e.batchBoundsBuf, 0, tile); err != nil {
		return err
	}
	smp := e.sampleBuf.slice()
	batch := e.batchContribBuf.slice()
	bounds := e.batchBoundsBuf.slice()
	h := e.hBuf.slice()
	kern := e.kern
	d := e.d
	s := e.s
	// One launch: each item scores its sample row against every query —
	// the same ascending-dimension mass product with zero short-circuit as
	// the single-query kernel, per query plane.
	e.dev.Launch(s, float64(d*nq), func(i int) {
		row := smp[i*d : (i+1)*d]
		for iq := 0; iq < nq; iq++ {
			b := bounds[iq*2*d : (iq+1)*2*d]
			m := 1.0
			for j := 0; j < d; j++ {
				m *= kern.Mass(b[j], b[d+j], row[j], h[j])
				if m == 0 {
					break
				}
			}
			batch[iq*s+i] = m
		}
	})
	col := e.batchColBuf.slice()
	for iq := 0; iq < nq; iq++ {
		o := iq * s
		e.dev.Launch(s, 1, func(i int) { col[i] = batch[o+i] })
		sum, err := e.dev.Reduce(e.batchColBuf, s)
		if err != nil {
			return err
		}
		ests[iq] = sum / float64(s)
	}
	// nq scalars return to the host in one transfer.
	e.dev.ChargeBits(64*nq, false)
	return nil
}

// Gradient computes ∂p̂/∂h for the given query on the device (steps 5–6 of
// Figure 3): per-point partial gradient kernels and one binary reduction
// per dimension, with the d-vector transferred back to the host. It reuses
// the contribution pass of a preceding Estimate when the query matches,
// mirroring the implementation's buffer retention; otherwise it runs the
// estimation pass itself. Returns the estimate and the gradient.
func (e *Engine) Gradient(q query.Range) (float64, []float64, error) {
	est := e.lastEst
	if !e.hasEst || !e.lastQ.Equal(q) {
		var err error
		est, err = e.Estimate(q)
		if err != nil {
			return 0, nil, err
		}
	}
	smp := e.sampleBuf.slice()
	gradPart := e.gradBuf.slice()
	bounds := e.boundsBuf.slice()
	h := e.hBuf.slice()
	kern := e.kern
	d := e.d
	// Each thread computes the d partial gradient contributions of one
	// sample point (eq. 16) via prefix/suffix products.
	e.dev.Launch(e.s, float64(2*d), func(i int) {
		row := smp[i*d : (i+1)*d]
		masses := make([]float64, d)
		mgrads := make([]float64, d)
		for j := 0; j < d; j++ {
			masses[j] = kern.Mass(bounds[j], bounds[d+j], row[j], h[j])
			mgrads[j] = kern.MassGrad(bounds[j], bounds[d+j], row[j], h[j])
		}
		suffix := 1.0
		for j := d - 1; j >= 0; j-- {
			gradPart[i*d+j] = suffix
			suffix *= masses[j]
		}
		prefix := 1.0
		for j := 0; j < d; j++ {
			gradPart[i*d+j] *= mgrads[j] * prefix
			prefix *= masses[j]
		}
	})
	// One reduction per dimension over a strided view; realized by packing
	// each dimension into the scratch column and reducing (the real kernel
	// uses a strided reduction — same pass count).
	grad := make([]float64, d)
	colBuf := e.dev.Alloc(e.s)
	col := colBuf.slice()
	for j := 0; j < d; j++ {
		jj := j
		e.dev.Launch(e.s, 1, func(i int) { col[i] = gradPart[i*d+jj] })
		sum, err := e.dev.Reduce(colBuf, e.s)
		if err != nil {
			return 0, nil, err
		}
		grad[j] = sum / float64(e.s)
	}
	// The d-component gradient returns to the host.
	e.dev.ChargeBits(64*d, false)
	return est, grad, nil
}

// UpdateKarma runs the karma maintenance pass of §5.6 over the retained
// contribution buffer: one kernel over the sample evaluates eqs. 6–8 (and
// the Appendix-E shortcut when the true selectivity is zero), and only the
// replacement bitmap travels back to the host. It returns the indices to
// replace. The caller must have run Estimate for the query that produced
// the feedback.
func (e *Engine) UpdateKarma(k *sample.Karma, actual float64) ([]int, error) {
	if !e.hasEst {
		return nil, errors.New("gpu: no retained contributions; run Estimate first")
	}
	if k.Size() != e.s {
		return nil, fmt.Errorf("gpu: karma tracks %d points, engine has %d", k.Size(), e.s)
	}
	bound := 0.0
	if actual == 0 {
		if _, ok := e.kern.(kernel.Gaussian); ok {
			bound = sample.EmptyRegionBound(e.lastQ, e.h)
		}
	}
	var idx []int
	var kerr error
	// One pass over the sample (step 9 of Figure 3); each item evaluates
	// its leave-one-out estimate and karma update. Complexity ~1 per item.
	e.dev.Launch(1, float64(e.s), func(int) {
		idx, kerr = k.Update(e.contribBuf.slice(), e.lastEst, actual, bound)
	})
	if kerr != nil {
		return nil, kerr
	}
	// The bitmap of points to replace returns to the host.
	e.dev.ChargeBits(e.s, false)
	return idx, nil
}

// ReplacePoint overwrites sample point i on the device with row — a single
// small transfer thanks to the row-major layout (§5.1).
func (e *Engine) ReplacePoint(i int, row []float64) error {
	if len(row) != e.d {
		return fmt.Errorf("gpu: replacement row has %d dims, want %d", len(row), e.d)
	}
	if i < 0 || i >= e.s {
		return fmt.Errorf("gpu: point index %d out of range [0,%d)", i, e.s)
	}
	e.hasEst = false
	return e.dev.CopyToDevice(e.sampleBuf, i*e.d, row)
}

// SampleHost transfers the full sample back to the host — an expensive
// operation used only by diagnostics and tests, never by the query path.
func (e *Engine) SampleHost() ([]float64, error) {
	out := make([]float64, e.s*e.d)
	if err := e.dev.CopyFromDevice(out, e.sampleBuf, 0); err != nil {
		return nil, err
	}
	return out, nil
}
