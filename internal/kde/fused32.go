package kde

import (
	"kdesel/internal/kernel"
	"kdesel/internal/mathx"
	"kdesel/internal/parallel"
	"kdesel/internal/query"
)

// This file holds the compressed columnar serving tier: a float32
// structure-of-arrays mirror of the sample (mathx.Float32), plus the fused
// Gaussian evaluators that stream it. The float64 mirror stays
// authoritative — the tier is a derived read copy, rebuilt by SetSampleFlat
// and patched in place by ReplacePoint — and per-query partial sums always
// accumulate in float64, so reduced precision narrows the per-element
// arithmetic and the bytes moved, never the reduction.
//
// Determinism matches fused.go: the same fixed chunk grid, per-row products
// in ascending dimension order with the zero short-circuit, chunk partials
// combined in chunk-index order. Serial and parallel execution of the tier
// are bit-identical, and the batch evaluator is bit-identical to the
// per-query one. The tier is approximate only relative to the float64 path
// (error contract in mathx.Precision docs); it is exact about its own
// arithmetic.

const (
	// qc32Stride is the per-dimension slot count of the hoisted float32
	// query constants: query lo, query hi, and 1/(√2·h).
	qc32Stride = 3
	// batchQTile32 is the query-tile width of the float32 batched Q×N
	// blocking. 4-byte lanes halve the accumulator footprint, so the tile
	// widens to 16: 16 accumulator tiles of ChunkSize rows occupy 16 KiB
	// and a column tile 1 KiB — the same L1 budget as the float64 path's
	// 8-wide tiles, with twice the column reuse per tile load.
	batchQTile32 = 16
)

func (s *fusedScratch) qc32Buf(n int) []float32 {
	if cap(s.qc32) < n {
		s.qc32 = make([]float32, n)
	}
	return s.qc32[:n]
}

func (s *fusedScratch) acc32Buf(n int) []float32 {
	if cap(s.acc32) < n {
		s.acc32 = make([]float32, n)
	}
	return s.acc32[:n]
}

// SetPrecision selects the numeric tier the serving entry points read
// through and (re)builds that tier from the current sample. Float64 (the
// default) drops the float32 tier and restores the exact pre-tier serving
// path. The setting only takes effect on the fused Gaussian path
// (fusedOK); estimators with non-Gaussian kernels or a forced generic
// layout keep serving float64 whatever the setting.
func (e *Estimator) SetPrecision(p mathx.Precision) {
	e.prec = p
	e.rebuildTiers()
}

// Precision returns the configured serving precision.
func (e *Estimator) Precision() mathx.Precision { return e.prec }

// Gen returns the sample-content generation counter (incremented by
// SetSampleFlat and each ReplacePoint) — the churn measure the serving
// layer keys compressed-tier re-verification on.
func (e *Estimator) Gen() uint64 { return e.gen }

// SelectivityRef estimates q on the float64 path regardless of the
// configured serving precision — the reference the publish-time verify
// gate compares a compressed tier against.
func (e *Estimator) SelectivityRef(q query.Range) (float64, error) {
	if err := e.checkReady(q); err != nil {
		return 0, err
	}
	if e.fusedOK() {
		return e.fusedSelectivity(q, nil), nil
	}
	// Non-fused estimators never serve a compressed tier: Selectivity is
	// already the float64 reference.
	return e.Selectivity(q)
}

// servePrecision resolves the tier an evaluation actually reads: the
// configured precision when its tier is built and consistent with the
// sample, Float64 otherwise. Callers have already checked fusedOK.
func (e *Estimator) servePrecision() mathx.Precision {
	if e.prec == mathx.Float32 && len(e.cols32) == len(e.cols) && len(e.cols) > 0 {
		return mathx.Float32
	}
	return mathx.Float64
}

// rebuildTiers refreshes the float32 tier from the float64 columnar mirror
// when prec selects it and drops it otherwise. Called wherever
// rebuildColumns is.
func (e *Estimator) rebuildTiers() {
	if e.prec != mathx.Float32 {
		e.cols32 = nil
		return
	}
	if cap(e.cols32) < len(e.cols) {
		e.cols32 = make([]float32, len(e.cols))
	}
	e.cols32 = e.cols32[:len(e.cols)]
	for i, v := range e.cols {
		e.cols32[i] = float32(v)
	}
}

// replaceTierPoint patches sample point i into the float32 tier when it is
// built (the ReplacePoint counterpart of rebuildTiers).
func (e *Estimator) replaceTierPoint(i int, p []float64) {
	if len(e.cols32) == 0 {
		return
	}
	s := e.Size()
	for j, v := range p {
		e.cols32[j*s+i] = float32(v)
	}
}

// queryConsts32 hoists query q's per-dimension float32 constants into qc
// (length d·qc32Stride): [lo, hi, 1/(√2·h)] per dimension. The query
// bounds round to float32 once here, so every row sees identical bounds.
func (e *Estimator) queryConsts32(q query.Range, qc []float32) {
	for j := 0; j < e.d; j++ {
		o := j * qc32Stride
		qc[o], qc[o+1], qc[o+2] = float32(q.Lo[j]), float32(q.Hi[j]), kernel.GaussianInv32(e.h[j])
	}
}

// fusedMassChunk32 is the compressed-tier eq. 13 map over sample rows
// [lo, hi): it fills acc[:hi-lo] with per-row float32 probability masses
// (ascending-dimension products, zero rows short-circuited) and returns
// their row-order sum accumulated in float64. When every row's running
// product has saturated to zero the remaining dimensions are skipped:
// multiplying an all-zero tile is a no-op, so the skip is bit-identical.
func (e *Estimator) fusedMassChunk32(qc []float32, lo, hi int, acc []float32) float64 {
	n := hi - lo
	s := e.Size()
	acc = acc[:n]
	for j := 0; j < e.d; j++ {
		o := j * qc32Stride
		col := e.cols32[j*s+lo : j*s+hi]
		var nz int
		if j == 0 {
			nz = kernel.GaussianMassFill32(acc, col, qc[o], qc[o+1], qc[o+2])
		} else {
			nz = kernel.GaussianMassMul32(acc, col, qc[o], qc[o+1], qc[o+2])
		}
		if nz == 0 {
			break
		}
	}
	sum := 0.0
	for _, v := range acc {
		sum += float64(v)
	}
	return sum
}

// fusedSelectivity32 is the compressed-tier counterpart of
// fusedSelectivity. Callers have validated the query and resolved the tier.
func (e *Estimator) fusedSelectivity32(q query.Range) float64 {
	s := e.Size()
	fs := e.getFused()
	qc := fs.qc32Buf(e.d * qc32Stride)
	e.queryConsts32(q, qc)
	total := 0.0
	if e.pool.Workers() <= 1 {
		acc := fs.acc32Buf(parallel.ChunkSize)
		for c, nc := 0, parallel.Chunks(s); c < nc; c++ {
			lo, hi := parallel.ChunkBounds(c, s)
			total += e.fusedMassChunk32(qc, lo, hi, acc)
		}
	} else {
		nc := parallel.Chunks(s)
		partials := e.bufs.Get(nc)
		e.pool.Run(s, func(c, lo, hi int) {
			ws := e.getFused()
			partials[c] = e.fusedMassChunk32(qc, lo, hi, ws.acc32Buf(parallel.ChunkSize))
			e.putFused(ws)
		})
		for _, v := range partials {
			total += v
		}
		e.bufs.Put(partials)
	}
	e.putFused(fs)
	return total / float64(s)
}

// fusedSelectivityBatch32 is the compressed-tier counterpart of
// fusedSelectivityBatch: queries are scored in tiles of batchQTile32
// against each L1-resident sample chunk, streaming every dimension's
// compressed column tile once per query tile. Per-(chunk, query) arithmetic
// is exactly fusedMassChunk32's, so batch results are bit-identical to the
// per-query path. Callers have validated the queries and resolved the tier.
func (e *Estimator) fusedSelectivityBatch32(qs []query.Range, ests []float64) {
	nq := len(qs)
	s := e.Size()
	nc := parallel.Chunks(s)
	partials := e.bufs.Get(nc * nq)
	e.fusedBatchPartials32(qs, partials)
	for iq := 0; iq < nq; iq++ {
		sum := 0.0
		for c := 0; c < nc; c++ {
			sum += partials[c*nq+iq]
		}
		ests[iq] = sum / float64(s)
	}
	e.bufs.Put(partials)
}

// fusedBatchPartials32 fills partials[c*nq+iq] with chunk c's unnormalized
// mass sum for query iq through the compressed tier — the shared
// partial-fill stage behind fusedSelectivityBatch32 and
// SelectivityBatchPartials. Every entry is assigned, never accumulated.
func (e *Estimator) fusedBatchPartials32(qs []query.Range, partials []float64) {
	nq := len(qs)
	s, d := e.Size(), e.d
	fs := e.getFused()
	qcAll := fs.qc32Buf(nq * d * qc32Stride)
	for i := range qs {
		e.queryConsts32(qs[i], qcAll[i*d*qc32Stride:(i+1)*d*qc32Stride])
	}
	e.pool.Run(s, func(c, lo, hi int) {
		ws := e.getFused()
		acc := ws.acc32Buf(batchQTile32 * parallel.ChunkSize)
		n := hi - lo
		pr := partials[c*nq : (c+1)*nq]
		var nz [batchQTile32]int
		for q0 := 0; q0 < nq; q0 += batchQTile32 {
			qn := min(batchQTile32, nq-q0)
			for j := 0; j < d; j++ {
				o := j * qc32Stride
				col := e.cols32[j*s+lo : j*s+hi]
				for t := 0; t < qn; t++ {
					if j != 0 && nz[t] == 0 {
						continue // dead tile: multiplying zeros is a no-op
					}
					qc := qcAll[(q0+t)*d*qc32Stride:]
					a := acc[t*parallel.ChunkSize : t*parallel.ChunkSize+n]
					if j == 0 {
						nz[t] = kernel.GaussianMassFill32(a, col, qc[o], qc[o+1], qc[o+2])
					} else {
						nz[t] = kernel.GaussianMassMul32(a, col, qc[o], qc[o+1], qc[o+2])
					}
				}
			}
			for t := 0; t < qn; t++ {
				a := acc[t*parallel.ChunkSize : t*parallel.ChunkSize+n]
				sum := 0.0
				for _, v := range a {
					sum += float64(v)
				}
				pr[q0+t] = sum
			}
		}
		e.putFused(ws)
	})
	e.putFused(fs)
}
