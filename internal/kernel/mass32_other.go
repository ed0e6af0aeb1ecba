//go:build !amd64

package kernel

// Only amd64 has the vector mass loop; elsewhere the pure-Go loops run.
const useAVX512 = false

func gaussianMass32AVX512(dst, col *float32, n int, l, u, inv float32, mul bool) int {
	panic("kernel: no vector mass loop on this architecture")
}
