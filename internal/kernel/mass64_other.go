//go:build !amd64

package kernel

// Only amd64 has the vector loops; elsewhere the exact-mode float64 mass
// kernels run their pure-Go loops.
const useVector64 = false

func gaussianMass64AVX512(dst, col *float64, n int, l, u, inv float64) {
	panic("kernel: no vector mass loop on this architecture")
}

func gaussianMassGrad64AVX512(mdst, gdst, col *float64, n int, l, u, inv, c1, c2 float64) {
	panic("kernel: no vector mass loop on this architecture")
}

func compressLive64(buf, dst, col *float64, n int) int {
	panic("kernel: no vector mass loop on this architecture")
}

func mulLive64(dst, buf *float64, n int) { panic("kernel: no vector mass loop on this architecture") }

func erfAVX512(x *float64, n int) { panic("kernel: no vector erf on this architecture") }

func expAVX512(x *float64, n int) { panic("kernel: no vector exp on this architecture") }
