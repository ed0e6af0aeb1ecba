package kernel

// The exact-mode float64 mass kernels on the vector loops of
// mass64_amd64.s, 8 rows per iteration (useVector64). The last len%8 rows
// run the pure-Go loops of kernel.go, the oracle the vector loops must
// match bit for bit (TestGaussianMass64SIMDMatchesGo, FuzzGaussianMass64).

// mulBlock is the row block of the vector GaussianMassMul: the columns of
// a block's live rows are packed into a stack array this long.
const mulBlock = 256

// massFill64 is GaussianMassFill's exact mode on the vector loop.
func massFill64(dst, col []float64, l, u, inv float64) {
	v := len(col) &^ 7
	if v > 0 {
		_ = dst[len(col)-1] // the assembly writes dst[:v] unchecked
		gaussianMass64AVX512(&dst[0], &col[0], v, l, u, inv)
	}
	gaussianMassFillGo(dst[v:], col[v:], l, u, inv)
}

// massMul64 is GaussianMassMul's exact mode on the vector loop. It
// evaluates only the live rows, as the Go loop does: it packs the columns
// of the rows whose running product is nonzero, runs the fill loop over
// the packed values, and multiplies the masses back into those rows, so a
// mostly-dead accumulator costs what its live rows cost.
func massMul64(dst, col []float64, l, u, inv float64) {
	var buf [mulBlock]float64
	for len(col) >= 8 {
		n := min(len(col), mulBlock) &^ 7
		_ = dst[n-1]
		if k := compressLive64(&buf[0], &dst[0], &col[0], n); k > 0 {
			gaussianMass64AVX512(&buf[0], &buf[0], (k+7)&^7, l, u, inv)
			mulLive64(&dst[0], &buf[0], n)
		}
		dst, col = dst[n:], col[n:]
	}
	gaussianMassMulGo(dst, col, l, u, inv)
}

// massGradFill64 is GaussianMassGradFill's exact mode on the vector loop.
func massGradFill64(mdst, gdst, col []float64, l, u, inv, c1, c2 float64) {
	v := len(col) &^ 7
	if v > 0 {
		_, _ = mdst[len(col)-1], gdst[len(col)-1]
		gaussianMassGrad64AVX512(&mdst[0], &gdst[0], &col[0], v, l, u, inv, c1, c2)
	}
	gaussianMassGradFillGo(mdst[v:], gdst[v:], col[v:], l, u, inv, c1, c2)
}
